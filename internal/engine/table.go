package engine

import (
	"parhull/internal/conflict"
	"parhull/internal/conmap"
)

// shardedPresizeCap bounds the pre-size of the growable sharded map. The
// (d+1)n expectation is only reached by boundary-heavy inputs (points on a
// sphere); interior-heavy inputs create far fewer ridges, and zeroing a
// (d+1)n-entry empty table up front dominated the 3d-ball-1m profile (21%
// of wall time in map memclr at n=1e6, and ~40x that sunk cost at n=1e7).
// A capped pre-size keeps small constructions rehash-free while huge ones
// grow on demand — amortized O(1) per insert, paid only for ridges that
// actually exist.
const shardedPresizeCap = 1 << 18

// DefaultMapCapacity is the sizing rule for growable ridge multimaps: the
// expected number of distinct ridges touched by a construction on n points
// in dimension d — every facet registers at most d ridges and the expected
// number of created facets is O(d·n) for a random order — capped by
// shardedPresizeCap. This is a pre-size, not a limit: the sharded map grows
// past it, so over-sizing only wastes memory and zeroing time (a 4x
// pre-size costs ~90 MB and ~10% wall-clock on the ball-100k benchmark for
// nothing, and the uncapped rule itself was 21% of the ball-1m profile).
// See FixedMapCapacity for the tables that genuinely need full headroom.
func DefaultMapCapacity(n, d int) int {
	c := (d + 1) * n
	if c > shardedPresizeCap {
		c = shardedPresizeCap
	}
	return c
}

// FixedMapCapacity is the sizing rule for the fixed-capacity CAS/TAS tables
// (the paper's Algorithms 4/5): open-addressing with no growth, so they must
// never fill. 4x the expected ridge count keeps the load factor low even on
// adversarial inputs where every point is a hull vertex (sphere workloads);
// unlike DefaultMapCapacity it is never capped — a fixed table sized below
// the ridge count would fail, not slow down.
func FixedMapCapacity(n, d int) int { return 4 * (d + 1) * n }

// ConmapTable adapts a conmap.RidgeMap (MapSharded/MapCAS/MapTAS) to the
// driver's Table over sorted-index-slice ridges. Ridge slices are retained
// as map keys, which is why FreshRidges must publish arena- or
// heap-allocated slices.
type ConmapTable[FV any] struct {
	M conmap.RidgeMap[*FV]
}

// InsertAndSet implements Table.
func (t ConmapTable[FV]) InsertAndSet(r []int32, f *FV) (bool, error) {
	return t.M.InsertAndSet(conmap.MakeKey(r), f)
}

// GetValue implements Table.
func (t ConmapTable[FV]) GetValue(r []int32, not *FV) *FV {
	return t.M.GetValue(conmap.MakeKey(r), not)
}

// MergeFilterFused implements line 16 of Algorithm 3 (and line 9 of
// Algorithm 2): C(t) = { v in C(t1) ∪ C(t2) : flt keeps v }, excluding the
// new point p, where flt is the kernel's batch visibility filter against the
// new facet (see conflict.Filter for the contract). One FilterMerge pass
// walks both conflict lists and classifies each candidate as it is merged.
// Lists at least grain long (0 selects conflict.DefaultGrain) filter in
// parallel pieces; with a worker arena, shorter lists — the steady state —
// filter through the arena's scratch, and every result compacts into arena
// memory, with no pool round-trip and no per-facet allocation. flt is a type
// parameter so kernels pass their concrete filter without interface boxing.
// The output and the multiset of visibility tests are identical on every
// path.
func MergeFilterFused[FV any, F conflict.Filter](a *Arena[FV], c1, c2 []int32, p int32, flt F, grain int) []int32 {
	if a != nil {
		g := grain
		if g <= 0 {
			g = conflict.DefaultGrain
		}
		if len(c1)+len(c2) < g {
			return conflict.MergeFilterFusedScratch(&a.Scratch, c1, c2, p, flt, a.Alloc)
		}
		return conflict.MergeFilterFused(c1, c2, p, flt, grain, a.Alloc)
	}
	return conflict.MergeFilterFused(c1, c2, p, flt, grain, nil)
}

package engine

import "parhull/internal/conmap"

// shardedPresizeCap bounds the pre-size of the growable sharded map. A
// ridge waits in the map only until its second facet arrives, so the map
// holds the open boundary of the hull under construction, not the ridges a
// build creates. Points n that reach the engine, ridges inserted over one
// Builder build with Shuffle at GOMAXPROCS = 2, and the most waiting at
// once (with the most any one of the 64 shards held), over two shuffles
// built twice each:
//
//	input                    n      inserted  waiting at once                fullest shard
//	3D sphere 1e5            1e5    600k      11,695–17,136 (0.12–0.17 n)    220–312
//	3D sphere 1e6            1e6    6.0M      58,317–65,078 (0.06 n)         999–1,103
//	3D ball 1e6, PreHullOff  1e6    52k       2,606–2,712 (0.003 n)          60–68
//	3D ball 1e6, pre-hull    5.7k   28k       1,547–1,869 (0.27–0.33 n)      41–45
//	4D sphere 2e4            2e4    800k      43,214–50,408 (2.2–2.5 n)      738–871
//	5D sphere 3e3            3e3    806k      63,577–68,311 (21–23 n)        1,072–1,162
//
// Below the cap the pre-size is (d+1)·n/8: n/2 in 3D, above every 3D row's
// peak. At the cap every shard starts with 1,024 slots and doubles only
// past 512 entries, so no shard grows on the 3D sphere of 1e5 points; the
// larger 3D boundaries, and the d ≥ 4 ones, which hold many more ridges per
// point, double their shards a few times, amortized O(1) per insert. The
// slot arrays take 1 MB at the cap, 16 bytes a slot, and an eighth of that
// for the few thousand points a pre-hull leaves of a 3D ball.
const shardedPresizeCap = 1 << 15

// DefaultMapCapacity is the sizing rule for growable ridge multimaps: the
// ridges expected to wait for their partner at once in a construction on n
// points in dimension d, (d+1)·n/8 capped by shardedPresizeCap (see the
// measured table above). This is a pre-size, not a limit: the sharded map
// grows past it, so over-sizing only wastes memory and cache, and
// under-sizing costs a few doublings. See FixedMapCapacity for the tables
// that keep every ridge and genuinely need full headroom.
func DefaultMapCapacity(n, d int) int {
	c := (d + 1) * n / 8
	if c > shardedPresizeCap {
		c = shardedPresizeCap
	}
	return c
}

// FixedMapCapacity is the sizing rule for the fixed-capacity CAS/TAS tables
// (the paper's Algorithms 4/5): open-addressing with no growth, so they must
// never fill. 4x the expected ridge count keeps the load factor low even on
// adversarial inputs where every point is a hull vertex (sphere workloads);
// unlike DefaultMapCapacity it is never capped — a fixed table keeps every
// ridge a build creates, and sized below that count it would fail, not slow
// down.
func FixedMapCapacity(n, d int) int { return 4 * (d + 1) * n }

// ConmapTable adapts a conmap.RidgeMap (MapSharded/MapCAS/MapTAS) to the
// driver's Table over sorted-index-slice ridges. Ridge slices are retained
// as map keys, which is why FreshRidges must publish arena-carved slices.
type ConmapTable[FV any] struct {
	M conmap.RidgeMap[*FV]
}

// Meet implements Table.
func (t ConmapTable[FV]) Meet(r []int32, f *FV) (*FV, error) {
	return t.M.Meet(conmap.MakeKey(r), f)
}

// Bytes implements Table.
func (t ConmapTable[FV]) Bytes() int64 { return t.M.Bytes() }

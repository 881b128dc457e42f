// Package hullstats holds the instrumentation shared by the incremental
// hull engines (2D, d-dimensional, and the Section 7 extensions): work
// counters (plane-side tests), facet life-cycle counters, and the
// dependence-depth accounting that realizes Definition 4.1 measurements.
package hullstats

import (
	"sync/atomic"

	"parhull/internal/stats"
)

// Stats aggregates the instrumentation of one incremental construction.
type Stats struct {
	// VisibilityTests counts plane-side (orientation) predicate evaluations
	// attributable to the algorithm: initial conflict-list construction and
	// conflict-list filtering.
	VisibilityTests int64
	// PlaneCacheHits counts visibility tests decided by the cached facet
	// hyperplane (the strided-dot-product fast path); ExactFallbacks counts
	// tests where the cached filter could not certify the sign and the exact
	// orientation predicate decided instead. Their sum equals the tests
	// performed through facets that carry a plane cache; on well-separated
	// random inputs ExactFallbacks is 0.
	PlaneCacheHits, ExactFallbacks int64
	// FacetsCreated counts every facet ever added, including the initial
	// simplex.
	FacetsCreated int64
	// Replaced / Buried count facet deaths by cause; Finalized counts ridge
	// chains ending in the all-empty case. A facet can be condemned through
	// more than one of its ridges (replaced through one, buried through
	// another); the first kill wins, so the Replaced/Buried split depends
	// on the schedule while their sum is deterministic.
	Replaced, Buried, Finalized int64
	// MaxDepth is the depth of the configuration dependence graph over the
	// created facets (the D(G(S)) of Theorem 1.1).
	MaxDepth int
	// Rounds is the number of synchronous rounds executed (rounds engines
	// only; the recursion depth of Theorem 5.3).
	Rounds int
	// HullSize is the number of facets of the final hull.
	HullSize int
	// DepthHist[d] counts created facets at dependence depth d.
	DepthHist []int
	// RoundWidths[r] is the number of ready ProcessRidge tasks in round r+1
	// (rounds engines only) — the available parallelism per round.
	RoundWidths []int
	// CapacityRetries counts whole-construction restarts after a fixed
	// CAS/TAS ridge table reported capacity exhaustion: each retry doubles
	// the table (the public layer's degradation ladder). 0 on clean runs.
	CapacityRetries int
	// MapFallback reports that the fixed table was abandoned for the
	// MapSharded table (the growable sharded map; in 2D, the vertex-slot
	// array) after the retries were exhausted; the reported Stats are then
	// those of that run.
	MapFallback bool
	// PreHullBlocks and PreHullKept describe the pre-hull reduction when it
	// ran: the number of block sub-hulls and the surviving point count fed
	// to the main construction (both 0 when the reduction was skipped).
	// All other counters describe the main construction only — the block
	// sub-hulls' visibility tests and facets are not included.
	PreHullBlocks, PreHullKept int
	// PeakBytes is the exact size, in bytes, of what the construction's own
	// structures hold when it ends: the facet slabs and int32 blocks its
	// arenas took from (each counted whole), its point store's coordinates
	// and, under Par and Rounds, its ridge table's slots. It is read from
	// those structures, not sampled from the heap, so builds of one input on
	// one worker read the same every time. Memory outside the construction
	// (the caller's points and output, the pre-hull's buffers) is not
	// counted.
	PeakBytes int64
}

// Depths tallies the created facets of one construction by dependence
// depth: Depths[d] counts those at depth d. A kernel fills it in the one walk
// over its created facets that collects the result, after the construction
// has quiesced, so it needs no synchronization; Snapshot turns it into
// FacetsCreated, MaxDepth and DepthHist. Reset keeps its storage.
type Depths []int

// Add counts one created facet at the given (non-negative) depth.
func (h *Depths) Add(depth int32) {
	for int(depth) >= len(*h) {
		*h = append(*h, 0)
	}
	(*h)[depth]++
}

// Reset empties the tally, keeping its storage.
func (h *Depths) Reset() { *h = (*h)[:0] }

// Recorder accumulates the concurrent counters of Stats: visibility tests,
// facet deaths and finalized ridges. The created facets are not counted
// here; Snapshot takes their Depths tally. The zero value is ready: its
// counters are held by value, so a Recorder embedded in retained state
// costs no allocation.
type Recorder struct {
	// VTests counts plane-side tests. Fallbacks counts the subset the
	// cached-plane filter could not certify (decided by the exact predicate
	// instead). The filter-certified count is not tracked on the hot path:
	// the plane cache is all-or-nothing per engine (a single static
	// threshold covers the whole point cloud), so Snapshot derives
	// PlaneCacheHits as VisibilityTests - ExactFallbacks when
	// SetPlaneCache(true) was called.
	VTests    stats.ShardedCounter
	Fallbacks stats.ShardedCounter

	planeOn bool

	repl, buried, final atomic.Int64
}

// SetPlaneCache records whether the engine runs with the cached-plane fast
// path enabled; call once before construction starts (not thread-safe).
func (r *Recorder) SetPlaneCache(on bool) { r.planeOn = on }

// Reset rewinds the recorder for the next construction. Not thread-safe;
// call between constructions.
func (r *Recorder) Reset() {
	r.VTests.Reset()
	r.Fallbacks.Reset()
	r.planeOn = false
	r.repl.Store(0)
	r.buried.Store(0)
	r.final.Store(0)
}

// Replaced records a facet death by replacement (first kill only: callers
// pass the result of their facet's kill()).
func (r *Recorder) Replaced(first bool) {
	if first {
		r.repl.Add(1)
	}
}

// Buried records a facet death by burial.
func (r *Recorder) Buried(first bool) {
	if first {
		r.buried.Add(1)
	}
}

// Finalized records a ridge chain ending with both conflict sets empty.
func (r *Recorder) Finalized() { r.final.Add(1) }

// Snapshot assembles the Stats, with FacetsCreated, MaxDepth and DepthHist
// taken from the created facets' depth tally. DepthHist is a copy of the
// tally into hist's storage, grown as needed: a caller that passes nil gets
// a fresh slice, and one that passes the DepthHist of its last Snapshot
// reuses that slice's storage.
func (r *Recorder) Snapshot(rounds, hullSize int, depths Depths, hist []int) Stats {
	s := Stats{
		VisibilityTests: r.VTests.Load(),
		ExactFallbacks:  r.Fallbacks.Load(),
		Replaced:        r.repl.Load(),
		Buried:          r.buried.Load(),
		Finalized:       r.final.Load(),
		MaxDepth:        max(len(depths)-1, 0),
		Rounds:          rounds,
		HullSize:        hullSize,
		DepthHist:       append(hist[:0], depths...),
	}
	if len(depths) == 0 {
		s.DepthHist = append(s.DepthHist, 0)
	}
	if r.planeOn {
		s.PlaneCacheHits = s.VisibilityTests - s.ExactFallbacks
	}
	for _, c := range depths {
		s.FacetsCreated += int64(c)
	}
	return s
}

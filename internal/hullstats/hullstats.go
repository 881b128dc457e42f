// Package hullstats holds the instrumentation shared by the incremental
// hull engines (2D, d-dimensional, and the Section 7 extensions): work
// counters (plane-side tests), facet life-cycle counters, and the
// dependence-depth accounting that realizes Definition 4.1 measurements.
package hullstats

import (
	"runtime"
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
	// PeakBytes is the peak live-heap growth observed during the
	// construction, in bytes: the maximum of (heap in use - heap in use at
	// construction start) over the recorder's sample points (construction
	// start, after the initial hull, and at result collection). It is a
	// sampled watermark, not an exact accounting — allocations freed between
	// samples are invisible — but it tracks the dominant contributors (point
	// store, conflict lists, ridge table) closely, which is what the
	// n=1e7-1e8 memory-budget planning needs. 0 when counters are disabled.
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
// here; Snapshot takes their Depths tally. The zero value is NOT ready; use
// NewRecorder. A Recorder with nil VTests counts facet deaths but not
// visibility tests.
type Recorder struct {
	// VTests counts plane-side tests; nil disables counting. Fallbacks
	// counts the subset the cached-plane filter could not certify (decided
	// by the exact predicate instead); it is nil exactly when VTests is.
	// The filter-certified count is not tracked on the hot path: the plane
	// cache is all-or-nothing per engine (a single static threshold covers
	// the whole point cloud), so Snapshot derives PlaneCacheHits as
	// VisibilityTests - ExactFallbacks when SetPlaneCache(true) was called.
	VTests    *stats.ShardedCounter
	Fallbacks *stats.ShardedCounter

	planeOn bool

	repl, buried, final atomic.Int64

	// Heap watermark sampling (see Stats.PeakBytes). Written only by the
	// construction's driving goroutine at quiescent points, so plain fields
	// suffice. Sampling is skipped entirely when counters are off —
	// runtime.ReadMemStats stops the world briefly.
	baseHeap  uint64
	peakBytes int64
}

// NewRecorder returns a Recorder; counters enables visibility-test counting.
func NewRecorder(counters bool) *Recorder {
	r := &Recorder{}
	if counters {
		r.VTests = stats.NewShardedCounter(64)
		r.Fallbacks = stats.NewShardedCounter(64)
	}
	return r
}

// SetPlaneCache records whether the engine runs with the cached-plane fast
// path enabled; call once before construction starts (not thread-safe).
func (r *Recorder) SetPlaneCache(on bool) { r.planeOn = on }

// Counting reports whether visibility-test counting (and heap sampling) is
// enabled.
func (r *Recorder) Counting() bool { return r.VTests != nil }

// MarkHeapBase samples the current live heap as the construction's
// baseline. Call once at construction start, from the driving goroutine.
// No-op when counters are disabled.
func (r *Recorder) MarkHeapBase() {
	if r.VTests == nil {
		return
	}
	r.baseHeap = heapInUse()
	r.peakBytes = 0
}

// SampleHeap raises the peak watermark to the current live-heap growth over
// the baseline. Call from the driving goroutine at quiescent points. No-op
// when counters are disabled.
func (r *Recorder) SampleHeap() {
	if r.VTests == nil {
		return
	}
	if h := heapInUse(); h > r.baseHeap {
		if d := int64(h - r.baseHeap); d > r.peakBytes {
			r.peakBytes = d
		}
	}
}

func heapInUse() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// Reset rewinds the recorder for the next construction, keeping the counter
// shards allocated. counters re-selects whether visibility tests are counted
// (the sharded counters are created or dropped only when the setting
// changes). Not thread-safe; call between constructions.
func (r *Recorder) Reset(counters bool) {
	if counters != (r.VTests != nil) {
		if counters {
			r.VTests = stats.NewShardedCounter(64)
			r.Fallbacks = stats.NewShardedCounter(64)
		} else {
			r.VTests, r.Fallbacks = nil, nil
		}
	} else {
		r.VTests.Reset()
		r.Fallbacks.Reset()
	}
	r.planeOn = false
	r.repl.Store(0)
	r.buried.Store(0)
	r.final.Store(0)
	r.baseHeap = 0
	r.peakBytes = 0
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

// Snapshot assembles the Stats, with FacetsCreated, MaxDepth and a fresh
// copy of DepthHist taken from the created facets' depth tally.
func (r *Recorder) Snapshot(rounds, hullSize int, depths Depths) Stats {
	s := Stats{
		VisibilityTests: r.VTests.Load(),
		ExactFallbacks:  r.Fallbacks.Load(),
		Replaced:        r.repl.Load(),
		Buried:          r.buried.Load(),
		Finalized:       r.final.Load(),
		MaxDepth:        max(len(depths)-1, 0),
		Rounds:          rounds,
		HullSize:        hullSize,
		DepthHist:       make([]int, max(len(depths), 1)),
		PeakBytes:       r.peakBytes,
	}
	if r.planeOn {
		s.PlaneCacheHits = s.VisibilityTests - s.ExactFallbacks
	}
	copy(s.DepthHist, depths)
	for _, c := range depths {
		s.FacetsCreated += int64(c)
	}
	return s
}

package hulld

import (
	"context"

	eng "parhull/internal/engine"
	"parhull/internal/faultinject"
	"parhull/internal/geom"
)

// retained is the state a construction owner keeps across constructions:
// the engine struct with its point store, recorder, and facet log, the arena
// the initial hull carves from, and the grow-only result-collection buffers.
// Reuse (parallel) and SeqReuse (sequential) embed it; initialHull and
// collectResult draw from it through engine.ru.
type retained struct {
	e     *engine
	arena *arena

	base     []geom.Point
	inits    []*Facet
	created  []*Facet
	facets   []*Facet
	vertices []int32
	inHull   []bool
	ridges   map[ridgeMapKey]int32
	res      Result
}

func newRetained() retained { return retained{arena: eng.NewArena[Facet]()} }

// engineFor returns the retained engine rewound and reloaded for this
// construction (created on first use). The rewind happens here — at the
// start of the next construction, not the end of the last — so an aborted or
// panicked construction needs no cleanup to keep the owner usable, and the
// previous Result stays valid until the next call.
func (r *retained) engineFor(pts []geom.Point, d int, counters bool, grain, stripes int, noPlane bool) *engine {
	r.arena.Reset()
	if r.e == nil {
		e := newEngine(pts, d, counters, grain, stripes, noPlane)
		e.ru = r
		r.e = e
		return e
	}
	e := r.e
	e.pts = pts
	e.store.Load(pts)
	e.d = d
	e.grain = grain
	e.interior = nil
	e.planeEps = 0
	if !noPlane {
		e.planeEps = geom.StaticFilterEps(e.store.MaxAbs())
	}
	e.rec.Reset(counters)
	e.rec.SetPlaneCache(e.planeEps > 0)
	e.rec.MarkHeapBase()
	e.log.Reset()
	return e
}

// Reuse retains the heavy per-construction state of the parallel engine
// across Par calls: the work-stealing substrate (workers, arenas, scratch —
// see engine.Pool), the engine struct with its point store, recorder, and
// facet log, and the result-collection buffers. Passing the same Reuse via
// Options.Reuse makes repeated constructions recycle essentially everything
// they allocate; it is the internal half of the public parhull.Builder.
//
// Contract: a Reuse serializes constructions (one Par at a time), and each
// Par invalidates the previous Result obtained through it — facets, slices,
// and buffers are recycled in place. Close retires the worker pool; the last
// Result stays valid.
type Reuse struct {
	retained
	pool *eng.Pool[Facet, []int32]
}

// NewReuse returns an empty Reuse; all pooled state is created lazily by the
// first construction.
func NewReuse() *Reuse {
	return &Reuse{retained: newRetained(), pool: eng.NewPool[Facet, []int32]()}
}

// Close retires the retained worker pool. The Reuse must not be used again;
// the last Result remains valid (arenas are not scribbled).
func (ru *Reuse) Close() {
	if ru != nil {
		ru.pool.Close()
	}
}

// Reset rewinds the pooled arenas immediately, invalidating the previous
// Result obtained through this Reuse while keeping every retained buffer for
// the next construction. Optional — the next Par rewinds lazily anyway.
func (ru *Reuse) Reset() {
	if ru != nil {
		ru.pool.Reset()
		ru.arena.Reset()
	}
}

// engineFor returns the engine for this construction: a fresh one when ru is
// nil (the one-shot path), otherwise ru's retained engine and pool rewound.
func engineFor(ru *Reuse, pts []geom.Point, d int, counters bool, grain, stripes int, noPlane bool) *engine {
	if ru == nil {
		return newEngine(pts, d, counters, grain, stripes, noPlane)
	}
	ru.pool.Reset()
	return ru.engineFor(pts, d, counters, grain, stripes, noPlane)
}

// SeqReuse retains the whole state of the sequential engine across
// constructions: the engine struct, one arena for every facet and slice, the
// pivot buckets and step buffers of engine.Seq, the ridge-adjacency map, and
// the result-collection buffers. A warm SeqReuse builds a hull with a
// handful of allocations; the pre-hull keeps one per executor worker for its
// block sub-hulls.
//
// Contract: one construction at a time, and each call invalidates the
// previous Result obtained through the same SeqReuse. The zero value is not
// ready; use NewSeqReuse.
type SeqReuse struct {
	retained
	loop eng.SeqScratch[Facet, []int32]
	geom seqGeom
}

// NewSeqReuse returns an empty SeqReuse; its buffers grow on first use.
func NewSeqReuse() *SeqReuse {
	return &SeqReuse{retained: newRetained(), geom: seqGeom{adj: map[ridgeMapKey][2]*Facet{}}}
}

// Seq is SeqCtx on the retained state, with visibility-test counting off
// (Stats carries the facet counters only) and the plane cache on. Points are
// inserted in the order given; the output facets are identical to SeqCtx's.
func (sr *SeqReuse) Seq(ctx context.Context, inj *faultinject.Injector, pts []geom.Point) (*Result, error) {
	return sr.seq(ctx, inj, pts, false, false)
}

package hull2d

import (
	"context"

	eng "parhull/internal/engine"
	"parhull/internal/faultinject"
	"parhull/internal/geom"
)

// retained is the state a construction owner keeps across constructions:
// the engine struct with its point store, recorder, and facet log, the arena
// the initial hull carves from, the vertex-slot ridge table, and the
// grow-only result-collection buffers.
// Reuse (parallel) and SeqReuse (sequential) embed it; initialHull and
// collectResult draw from it through engine.ru.
type retained struct {
	e     *engine
	arena *arena

	order    []int32
	inits    []*Facet
	next     []*Facet
	created  []*Facet
	facets   []*Facet
	vertices []int32
	slots    vertexSlots
	res      Result
}

func newRetained() retained { return retained{arena: eng.NewArena[Facet]()} }

// engineFor returns the retained engine rewound and reloaded for this
// construction (created on first use). The rewind happens at the start of
// the next construction, so an aborted or panicked construction needs no
// cleanup to keep the owner usable and the previous Result stays valid until
// the next call.
func (r *retained) engineFor(pts []geom.Point, base int, counters bool, grain, stripes int, noPlane bool) *engine {
	r.arena.Reset()
	if r.e == nil {
		e := newEngine(pts, base, counters, grain, stripes, noPlane)
		e.ru = r
		r.e = e
		return e
	}
	e := r.e
	e.pts = pts
	e.store.Load(pts)
	e.base = base
	e.grain = grain
	e.ridgeIDs = nil
	e.trace = nil
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

// Reuse retains the heavy per-construction state of the 2D parallel engine
// across Par calls — the work-stealing substrate (see engine.Pool), the
// engine struct with its point store, recorder, and facet log, the
// vertex-slot ridge table, and the result-collection buffers — mirroring
// hulld.Reuse for the planar kernel.
//
// Contract: a Reuse serializes constructions (one Par at a time), and each
// Par invalidates the previous Result obtained through it. Close retires the
// worker pool; the last Result stays valid.
type Reuse struct {
	retained
	pool *eng.Pool[Facet, int32]
}

// NewReuse returns an empty Reuse; all pooled state is created lazily by the
// first construction.
func NewReuse() *Reuse {
	return &Reuse{retained: newRetained(), pool: eng.NewPool[Facet, int32]()}
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
func engineFor(ru *Reuse, pts []geom.Point, base int, counters bool, grain, stripes int, noPlane bool) *engine {
	if ru == nil {
		return newEngine(pts, base, counters, grain, stripes, noPlane)
	}
	ru.pool.Reset()
	return ru.engineFor(pts, base, counters, grain, stripes, noPlane)
}

// SeqReuse retains the whole state of the sequential engine across
// constructions — the engine struct, one arena for every facet and conflict
// list, the pivot buckets and step buffers of engine.Seq, the hull-cycle
// arrays, and the result-collection buffers — mirroring hulld.SeqReuse for
// the planar kernel.
//
// Contract: one construction at a time, and each call invalidates the
// previous Result obtained through the same SeqReuse. The zero value is not
// ready; use NewSeqReuse.
type SeqReuse struct {
	retained
	loop eng.SeqScratch[Facet, int32]
	geom seqGeom
}

// NewSeqReuse returns an empty SeqReuse; its buffers grow on first use.
func NewSeqReuse() *SeqReuse { return &SeqReuse{retained: newRetained()} }

// Seq is SeqCtx on the retained state, with visibility-test counting off
// (Stats carries the facet counters only) and the line cache on. Points are
// inserted in the order given; the output facets are identical to SeqCtx's.
func (sr *SeqReuse) Seq(ctx context.Context, inj *faultinject.Injector, pts []geom.Point) (*Result, error) {
	return sr.seqFrom(ctx, inj, pts, 3, false, false)
}

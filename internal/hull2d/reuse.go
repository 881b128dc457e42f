package hull2d

import (
	eng "parhull/internal/engine"
	"parhull/internal/geom"
)

// Reuse retains the heavy per-construction state of every schedule across
// constructions — the engine struct with its point store, recorder, and
// facet log; the arena the initial hull (and all of Seq) carves from; Seq's
// pivot buckets, step buffers, and hull-cycle arrays; the vertex-slot ridge
// table; the result-collection buffers; and the engine.Pool of
// work-stealing workers and per-worker arenas that Par and Rounds both run
// on — mirroring hulld.Reuse for the planar kernel.
//
// Contract: a Reuse serializes constructions (one at a time, of any
// schedule), and each invalidates the previous Result obtained through it.
// Close retires the worker pool; the last Result stays valid. The zero
// value is not ready; use NewReuse.
type Reuse struct {
	e     *engine
	arena *arena
	pool  *eng.Pool[Facet, int32]
	loop  eng.SeqScratch[Facet, int32]
	geom  seqGeom

	order    []int32
	inits    []*Facet
	next     []*Facet
	created  []*Facet
	facets   []*Facet
	vertices []int32
	slots    vertexSlots
	res      Result
}

// NewReuse returns an empty Reuse; all pooled state is created lazily by the
// first construction.
func NewReuse() *Reuse {
	return &Reuse{arena: eng.NewArena[Facet](), pool: eng.NewPool[Facet, int32]()}
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
// the next construction. Optional — the next construction rewinds lazily
// anyway.
func (ru *Reuse) Reset() {
	if ru != nil {
		ru.pool.Reset()
		ru.arena.Reset()
	}
}

// engineFor returns the engine for this construction: a fresh one when ru is
// nil (the one-shot Par and Rounds), otherwise ru's retained engine rewound
// and reloaded, created on first use. The rewind happens at the start of
// the next construction, so an aborted or panicked construction needs no
// cleanup to keep the owner usable and the previous Result stays valid until
// the next call. stripes sizes the facet log: 1 keeps Result.Created in
// creation order (Seq), whatever schedule last ran on ru.
func engineFor(ru *Reuse, pts []geom.Point, base int, counters bool, grain, stripes int, noPlane bool) *engine {
	if ru == nil {
		return newEngine(pts, base, counters, grain, stripes, noPlane)
	}
	ru.pool.Reset()
	ru.arena.Reset()
	if ru.e == nil {
		ru.e = newEngine(pts, base, counters, grain, stripes, noPlane)
		ru.e.ru = ru
		return ru.e
	}
	e := ru.e
	e.pts = pts
	e.store.Load(pts)
	e.base = base
	e.grain = grain
	e.trace = nil
	e.planeEps = 0
	if !noPlane {
		e.planeEps = geom.StaticFilterEps(e.store.MaxAbs())
	}
	e.rec.Reset(counters)
	e.rec.SetPlaneCache(e.planeEps > 0)
	e.rec.MarkHeapBase()
	e.log.Reset(stripes)
	return e
}

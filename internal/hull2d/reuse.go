package hull2d

import (
	eng "parhull/internal/engine"
	"parhull/internal/geom"
	"parhull/internal/hullstats"
)

// Reuse holds the state of a construction under every schedule, and retains
// it across constructions — the engine struct with its point store and
// recorder; the arena the initial hull (and all of Seq) carves from; Seq's
// pivot buckets, step buffers, and hull-cycle arrays; the vertex-slot ridge
// table; the result-collection buffers; and the engine.Pool of
// work-stealing workers and per-worker arenas that Par and Rounds both run
// on — mirroring hulld.Reuse for the planar kernel. Its arenas hold every
// facet a construction creates, and are the only record of them. Without a
// Reuse in Options, each schedule runs on a fresh one.
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
	depths   hullstats.Depths
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

// Bytes returns the exact size of the memory the Reuse retains for the next
// construction in its arenas (facet slabs and int32 blocks, Arena.Bytes) and
// in its vertex-slot ridge table.
func (ru *Reuse) Bytes() int64 {
	return ru.arena.Bytes() + ru.pool.Bytes() + 8*int64(cap(ru.slots.slots))
}

// engineFor returns ru's engine for this construction: the retained one
// rewound and reloaded, created on first use. The rewind happens at the
// start of the next construction, so an aborted or panicked construction
// needs no cleanup to keep the owner usable and the previous Result stays
// valid until the next call. It also empties the worker arenas before Seq,
// so the walk of a Seq construction lists its facets in creation order,
// whatever schedule last ran on ru.
func engineFor(ru *Reuse, pts []geom.Point, base int, counters bool, grain int, noPlane bool) *engine {
	ru.pool.Reset()
	ru.arena.Reset()
	e := ru.e
	if e == nil {
		e = &engine{store: new(geom.PointStore), rec: hullstats.NewRecorder(counters), ru: ru}
		ru.e = e
	} else {
		e.rec.Reset(counters)
	}
	e.pts = pts
	e.store.Load(pts)
	e.base = base
	e.grain = grain
	e.trace = nil
	e.planeEps = 0
	if !noPlane {
		e.planeEps = geom.StaticFilterEps(e.store.MaxAbs())
	}
	e.rec.SetPlaneCache(e.planeEps > 0)
	e.rec.MarkHeapBase()
	return e
}

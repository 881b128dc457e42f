package hulld

import (
	eng "parhull/internal/engine"
	"parhull/internal/geom"
	"parhull/internal/hullstats"
)

// Reuse holds the state of a construction under every schedule, and retains
// it across constructions: the engine struct with its point store and
// recorder; the arena the initial hull (and all of Seq) carves from; Seq's
// pivot buckets, step buffers, and ridge-adjacency map; the
// result-collection buffers; and the engine.Pool — the work-stealing workers
// and per-worker arenas that Par and Rounds both run on. The two kinds of
// arena hold every facet a construction creates, and are the only record of
// them: collectResult reads Result.Created and the creation stats back from
// them. Passing the same Reuse via Options.Reuse to Seq, Par, or Rounds
// makes repeated constructions recycle essentially everything they allocate;
// without one, each schedule runs on a fresh Reuse. It is the internal half
// of the public parhull.Builder; the pre-hull keeps one per executor worker
// for its block sub-hulls.
//
// Contract: a Reuse serializes constructions (one at a time, of any
// schedule), and each invalidates the previous Result obtained through it —
// facets, slices, and buffers are recycled in place. Close retires the
// worker pool; the last Result stays valid. The zero value is not ready;
// use NewReuse.
type Reuse struct {
	e     *engine
	arena *arena
	pool  *eng.Pool[Facet, []int32]
	loop  eng.SeqScratch[Facet, []int32]
	geom  seqGeom

	base     []geom.Point
	inits    []*Facet
	created  []*Facet
	facets   []*Facet
	vertices []int32
	inHull   []bool
	depths   hullstats.Depths
	closure  closure
	res      Result
}

// NewReuse returns an empty Reuse; all pooled state is created lazily by the
// first construction.
func NewReuse() *Reuse {
	return &Reuse{arena: eng.NewArena[Facet](), pool: eng.NewPool[Facet, []int32]()}
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
// construction in its arenas: facet slabs and int32 blocks (Arena.Bytes).
func (ru *Reuse) Bytes() int64 { return ru.arena.Bytes() + ru.pool.Bytes() }

// engineFor returns ru's engine for this construction: the retained one
// rewound and reloaded, created on first use. A non-nil lift selects lifted
// mode. The rewind of the arenas and
// pool happens here — at the start of the next construction, not the end of
// the last — so an aborted or panicked construction needs no cleanup to
// keep the owner usable, and the previous Result stays valid until the next
// call. It also empties the worker arenas before Seq, so the walk of a Seq
// construction lists its facets in creation order, whatever schedule last
// ran on ru.
func engineFor(ru *Reuse, pts, lift []geom.Point, d int, counters bool, grain int, noPlane bool) *engine {
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
	e.d = d
	e.grain = grain
	e.interior = nil
	e.lift = lift
	e.setPlaneEps(noPlane)
	e.rec.MarkHeapBase()
	return e
}

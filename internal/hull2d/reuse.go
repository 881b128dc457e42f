package hull2d

import (
	eng "parhull/internal/engine"
	"parhull/internal/geom"
)

// Reuse holds the state of a construction under every schedule, and retains
// it across constructions. Its embedded engine.Reuse is the construction
// scaffold both kernels share: the arenas every facet is carved from (the
// only record of the created facets), the work-stealing pool Par and Rounds
// run on, Seq's pivot buckets, the recorder and the point store, with their
// rewind, Close and Reset. Beside it this kernel keeps only its geometry:
// the engine, Seq's hull-cycle arrays, the base polygon with its hull sizes,
// the vertex-slot ridge table, and the result's buffers (the cycle links,
// the alive edges and the vertices). Without a Reuse in Options, each
// schedule runs on a fresh one.
//
// Contract: a Reuse serializes constructions (one at a time, of any
// schedule), and each invalidates the previous Result obtained through it.
// Close retires the worker pool; the last Result stays valid. The zero
// value is not ready; use NewReuse.
type Reuse struct {
	eng.Reuse[Facet, int32]
	e    engine
	geom seqGeom

	order     []int32
	inits     []*Facet
	baseSizes []int
	next      []*Facet
	facets    []*Facet
	vertices  []int32
	slots     vertexSlots
	res       Result
}

// NewReuse returns an empty Reuse; all pooled state is created lazily by the
// first construction.
func NewReuse() *Reuse {
	ru := new(Reuse)
	ru.e.store, ru.e.rec, ru.e.ru = &ru.Store, &ru.Rec, ru
	return ru
}

// Bytes returns the exact size of the memory the Reuse retains for the next
// construction in its arenas (facet slabs and int32 blocks, Arena.Bytes) and
// in its vertex-slot ridge table.
func (ru *Reuse) Bytes() int64 { return ru.Reuse.Bytes() + 8*int64(cap(ru.slots.slots)) }

// engineFor rewinds ru for a construction over pts (engine.Reuse.Begin) and
// returns its engine, loaded for that construction.
func engineFor(ru *Reuse, pts []geom.Point, base int, grain int, noPlane bool) *engine {
	ru.Begin(pts)
	e := &ru.e
	e.pts = pts
	e.base = base
	e.grain = grain
	e.trace = nil
	e.planeEps = 0
	if !noPlane {
		e.planeEps = geom.StaticFilterEps(e.store.MaxAbs())
	}
	e.rec.SetPlaneCache(e.planeEps > 0)
	return e
}

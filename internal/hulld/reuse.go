package hulld

import (
	eng "parhull/internal/engine"
	"parhull/internal/geom"
)

// Reuse holds the state of a construction under every schedule, and retains
// it across constructions. Its embedded engine.Reuse is the construction
// scaffold both kernels share: the arenas every facet is carved from (the
// only record of the created facets), the work-stealing pool Par and Rounds
// run on, Seq's pivot buckets, the recorder and the point store, with their
// rewind, Close, Reset and Bytes. Beside it this kernel keeps only its
// geometry: the engine, Seq's ridge-adjacency map, the base simplex with its
// ridges and hull sizes, and the result's buffers (the alive facets, the
// vertex marks and the rows of the closure check). Passing the same Reuse via Options.Reuse
// to Seq, Par, or Rounds makes repeated constructions recycle essentially
// everything they allocate; without one, each schedule runs on a fresh
// Reuse. It is the internal half of the public parhull.Builder; the
// pre-hull keeps one per executor worker for its block sub-hulls.
//
// Contract: a Reuse serializes constructions (one at a time, of any
// schedule), and each invalidates the previous Result obtained through it —
// facets, slices, and buffers are recycled in place. Close retires the
// worker pool; the last Result stays valid. The zero value is not ready;
// use NewReuse.
type Reuse struct {
	eng.Reuse[Facet, []int32]
	e    engine
	geom seqGeom

	base      []geom.Point
	baseSizes []int
	ridges    []int32
	inits     []*Facet
	facets    []*Facet
	vertices  []int32
	inHull    []bool
	closure   closure
	res       Result
}

// NewReuse returns an empty Reuse; all pooled state is created lazily by the
// first construction.
func NewReuse() *Reuse {
	ru := new(Reuse)
	ru.e.store, ru.e.rec, ru.e.ru = &ru.Store, &ru.Rec, ru
	return ru
}

// engineFor rewinds ru for a construction over pts (engine.Reuse.Begin) and
// returns its engine, loaded for that construction. A non-nil lift selects
// lifted mode.
func engineFor(ru *Reuse, pts, lift []geom.Point, d int, grain int, noPlane bool) *engine {
	ru.Begin(pts)
	e := &ru.e
	e.pts = pts
	e.d = d
	e.grain = grain
	e.interior = e.interior[:0]
	e.lift = lift
	e.setPlaneEps(noPlane)
	return e
}

package hull2d

import (
	"parhull/internal/conflict"
	eng "parhull/internal/engine"
	"parhull/internal/faultinject"
	"parhull/internal/geom"
	"parhull/internal/hullstats"
)

// This file binds the kernel to the shared batch visibility filter
// (conflict.PlaneFilter, DESIGN.md §4.3): the scan itself — the chunked
// fused merge, the four-wide stride-2 unroll, the exact-only loops, and the
// uncertain sidecar — lives in internal/conflict, and this kernel supplies
// one edge's folded line as a stride-2 row and the exact Orient2D test as
// the exact predicate. initPlane writes the line folded into the worker's
// plane slot — positive certifies visible — so no per-test negation is
// needed.

// edgeRow binds the engine and the plane slot of one new edge as the
// conflict.PlaneKernel of that edge's visibility predicate. It is valid only
// until the slot's arena makes its next edge.
type edgeRow struct {
	e *engine
	s *eng.PlaneSlot
}

// filter returns the batch visibility filter of the edge in slot s. It is a
// 16-byte value passed through the generic merge-filter entry points without
// interface boxing.
func (e *engine) filter(s *eng.PlaneSlot) conflict.PlaneFilter[edgeRow] {
	return conflict.PlaneFilter[edgeRow]{K: edgeRow{e: e, s: s}}
}

// Row returns the slot's folded line over the point store; with the line
// cache off it returns no line, which sends every candidate to the exact
// predicate.
func (r edgeRow) Row() (c, n []float64, off, eps float64, rec *hullstats.Recorder, inj *faultinject.Injector) {
	e := r.e
	if e.planeEps > 0 {
		n, off, eps = r.s.N[:2:2], r.s.Off, e.planeEps
	}
	return e.store.Coords(), n, off, eps, e.rec, e.inj
}

func (r edgeRow) Exact(v int32) bool { return r.e.exactVisible(v, r.s) }

// exactVisible is the exact visibility predicate with no counting — the
// batch filter's exact path and uncertain-sidecar resolution (both count
// before calling it) — for the edge whose endpoints are in slot s.
func (e *engine) exactVisible(v int32, s *eng.PlaneSlot) bool {
	return geom.Orient2D(s.VP[0], s.VP[1], e.pts[v]) < 0
}

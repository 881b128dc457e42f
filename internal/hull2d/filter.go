package hull2d

import (
	"parhull/internal/conflict"
	"parhull/internal/faultinject"
	"parhull/internal/geom"
	"parhull/internal/hullstats"
)

// This file binds the kernel to the shared batch visibility filter
// (conflict.PlaneFilter, DESIGN.md §4.3): the scan itself — the chunked
// fused merge, the four-wide stride-2 unroll, the exact-only loops, and the
// uncertain sidecar — lives in internal/conflict, and this kernel supplies
// one edge's folded line as a stride-2 row and the exact Orient2D test as
// the exact predicate. Lines are stored folded in the facet (initPlane) —
// positive certifies visible — so no per-test negation is needed.

// edgeRow binds the engine and one edge as the conflict.PlaneKernel of that
// edge's visibility predicate.
type edgeRow struct {
	e *engine
	f *Facet
}

// filter returns f's batch visibility filter. It is a 16-byte value passed
// through the generic merge-filter entry points without interface boxing.
func (e *engine) filter(f *Facet) conflict.PlaneFilter[edgeRow] {
	return conflict.PlaneFilter[edgeRow]{K: edgeRow{e: e, f: f}}
}

// Row returns f's folded line over the point store; with the line cache off
// it returns no line, which sends every candidate to the exact predicate.
func (r edgeRow) Row() (c, n []float64, off, eps float64, rec *hullstats.Recorder, inj *faultinject.Injector) {
	e := r.e
	if e.planeEps > 0 {
		n, off, eps = r.f.n[:], r.f.off, e.planeEps
	}
	return e.store.Coords(), n, off, eps, e.rec, e.inj
}

func (r edgeRow) Exact(v int32) bool { return r.e.exactVisible(v, r.f) }

// exactVisible is the exact visibility predicate with no counting — the
// batch filter's exact path and uncertain-sidecar resolution (both count
// before calling it).
func (e *engine) exactVisible(v int32, f *Facet) bool {
	return geom.Orient2D(e.pts[f.A], e.pts[f.B], e.pts[v]) < 0
}

package hulld

import (
	"parhull/internal/conflict"
	"parhull/internal/faultinject"
	"parhull/internal/hullstats"
)

// This file binds the kernel to the shared batch visibility filter
// (conflict.PlaneFilter, DESIGN.md §4.3): the scan itself — the chunked
// fused merge, the four-wide stride-2/3 unrolls, the generic-stride and
// exact-only loops, and the uncertain sidecar — lives in internal/conflict,
// and this kernel supplies one facet's folded plane as the row and
// exactVisible as the exact predicate. Planes are stored folded in the
// facet (makeFacet), so a positive evaluation certifies visible.

// facetRow binds the engine and one facet as the conflict.PlaneKernel of
// that facet's visibility predicate.
type facetRow struct {
	e *engine
	f *Facet
}

// filter returns f's batch visibility filter. It is a 16-byte value passed
// through the generic merge-filter entry points without interface boxing.
func (e *engine) filter(f *Facet) conflict.PlaneFilter[facetRow] {
	return conflict.PlaneFilter[facetRow]{K: facetRow{e: e, f: f}}
}

// Row returns f's folded plane over the point store; without a plane cache
// its dimension is 0, and the empty row sends every candidate to the exact
// predicate.
func (r facetRow) Row() (c, n []float64, off, eps float64, rec *hullstats.Recorder, inj *faultinject.Injector) {
	p := &r.f.plane
	d := p.Dim()
	return r.e.store.Coords(), p.N[:d:d], p.Off, p.Eps, r.e.rec, r.e.inj
}

func (r facetRow) Exact(v int32) bool { return r.e.exactVisible(v, r.f) }

package hulld

import (
	"parhull/internal/conflict"
	eng "parhull/internal/engine"
	"parhull/internal/faultinject"
	"parhull/internal/hullstats"
)

// This file binds the kernel to the shared batch visibility filter
// (conflict.PlaneFilter, DESIGN.md §4.3): the scan itself — the chunked
// fused merge, the four-wide stride-2/3 unrolls, the generic-stride and
// exact-only loops, and the uncertain sidecar — lives in internal/conflict,
// and this kernel supplies one facet's folded plane as the row and
// exactVisible as the exact predicate. makeFacet writes the plane folded into
// the worker's plane slot, so a positive evaluation certifies visible.

// facetRow binds the engine and the plane slot of one new facet as the
// conflict.PlaneKernel of that facet's visibility predicate. It is valid
// only until the slot's arena makes its next facet.
type facetRow struct {
	e *engine
	s *eng.PlaneSlot
}

// filter returns the batch visibility filter of the facet in slot s. It is a
// 16-byte value passed through the generic merge-filter entry points without
// interface boxing.
func (e *engine) filter(s *eng.PlaneSlot) conflict.PlaneFilter[facetRow] {
	return conflict.PlaneFilter[facetRow]{K: facetRow{e: e, s: s}}
}

// Row returns the slot's folded plane over the point store; without a plane
// its dimension is 0, and the empty row sends every candidate to the exact
// predicate.
func (r facetRow) Row() (c, n []float64, off, eps float64, rec *hullstats.Recorder, inj *faultinject.Injector) {
	p := &r.s.Plane
	d := p.Dim()
	return r.e.store.Coords(), p.N[:d:d], p.Off, p.Eps, r.e.rec, r.e.inj
}

func (r facetRow) Exact(v int32) bool { return r.e.exactVisible(v, r.s) }

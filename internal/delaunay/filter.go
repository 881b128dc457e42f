package delaunay

import (
	"parhull/internal/conflict"
	"parhull/internal/faultinject"
	"parhull/internal/hullstats"
)

// This file binds the kernel to the shared batch in-circle filter
// (conflict.PlaneFilter, DESIGN.md §4.3, §4.6): the triangle's negated
// lifted plane is a stride-3 row over the flat lifted coordinates, so a
// candidate costs one 3-term dot product in the same chunked four-wide scan
// the 3D hull runs; candidates the per-facet certificate cannot decide
// resolve through the exact geom.InCircle predicate.

// triRow binds the engine and one triangle as the conflict.PlaneKernel of
// that triangle's in-circle predicate.
type triRow struct {
	e *dEngine
	t *Triangle
}

// filter returns t's batch conflict filter. It is a 16-byte value passed
// through the generic merge-filter entry points without interface boxing.
func (e *dEngine) filter(t *Triangle) conflict.PlaneFilter[triRow] {
	return conflict.PlaneFilter[triRow]{K: triRow{e: e, t: t}}
}

// Row returns t's negated lifted plane over the lifted coordinates; without
// a predicate cache its dimension is 0, and the empty row sends every
// candidate to the exact predicate. The Delaunay engine has no scan-batch
// fault site, so the injector is nil.
func (r triRow) Row() (c, n []float64, off, eps float64, rec *hullstats.Recorder, inj *faultinject.Injector) {
	p := &r.t.plane
	d := p.Dim()
	return r.e.lift, p.N[:d:d], p.Off, p.Eps, r.e.rec, nil
}

func (r triRow) Exact(v int32) bool { return r.e.exactConflict(v, r.t) }

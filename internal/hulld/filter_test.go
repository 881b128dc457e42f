package hulld

import (
	"fmt"
	"testing"

	"parhull/internal/conflict"
	eng "parhull/internal/engine"
	"parhull/internal/geom"
	"parhull/internal/pointgen"
)

// visible is the pointwise reference of the batch filters: whether point v
// is strictly outside the facet in slot s, counting the test. The
// cached-plane filter decides almost every call and the exact OrientSimplex
// predicate is the fallback, so the answer is always exact. Planes are
// stored folded (makeFacet), so a positive evaluation certifies visible
// directly.
func (e *engine) visible(v int32, s *eng.PlaneSlot) bool {
	e.rec.VTests.Inc(uint64(v))
	if s.Valid() {
		x := s.Eval(e.store.Row(v))
		if x > s.Eps {
			return true
		}
		if x < -s.Eps {
			return false
		}
		e.rec.Fallbacks.Inc(uint64(v))
	}
	return e.exactVisible(v, s)
}

// slotOf rebuilds the plane slot of f from its vertices with the kernel's own
// makeFacet, on a fresh slot: a facet keeps no plane once its conflict list
// is filtered.
func (e *engine) slotOf(t testing.TB, f *Facet) *eng.PlaneSlot {
	t.Helper()
	_, s, err := e.makeFacet(eng.NewArena[Facet](), f.Verts)
	if err != nil {
		t.Fatalf("makeFacet(%v): %v", f.Verts, err)
	}
	return s
}

// filterCloud builds a d-dimensional cloud designed to stress every branch
// of the batch filter: the base simplex (the origin and 4·e_i), whose facet
// opposite 4·e_d lies on the hyperplane x_d = 0; more points on that
// hyperplane than the uncertain sidecar's stack capacity (uncertain for that
// facet, exactly invisible — forcing a heap spill); points a hair below it
// (inside the static filter's uncertain band but exactly visible, so the
// sidecar's survivors must be value-merged back between certain survivors);
// and enough random points, clearly inside or outside, to make candidate
// lists longer than the fused merge's chunk. The non-base points are
// shuffled so the categories interleave in index order.
func filterCloud(d int) []geom.Point {
	rng := pointgen.NewRNG(int64(40 + d))
	var rest []geom.Point
	for i := 0; i < 2*conflict.UncertainCap; i++ {
		p := make(geom.Point, d)
		for k := 0; k < d-1; k++ {
			p[k] = 0.05 + 0.1*float64((i+k)%9)
		}
		rest = append(rest, p)
	}
	for i := 0; i < 6; i++ {
		p := make(geom.Point, d)
		for k := 0; k < d-1; k++ {
			p[k] = 0.5 + 0.25*float64(i)
		}
		p[d-1] = -1e-15
		rest = append(rest, p)
	}
	for _, p := range pointgen.InCube(rng, 3*conflict.MergeChunk, d) {
		for k := range p {
			p[k] = 2 + 4*p[k] // the cube [-2, 6]^d straddles every facet
		}
		rest = append(rest, p)
	}
	pts := make([]geom.Point, 0, d+1+len(rest))
	pts = append(pts, make(geom.Point, d))
	for i := 0; i < d; i++ {
		p := make(geom.Point, d)
		p[i] = 4
		pts = append(pts, p)
	}
	for _, i := range rng.Perm(len(rest)) {
		pts = append(pts, rest[i])
	}
	return pts
}

// pointwiseSurvivors is the reference the fused filter must reproduce: the
// visible predicate over the materialized merge of c1 and c2 minus drop.
func pointwiseSurvivors(e *engine, s *eng.PlaneSlot, c1, c2 []int32, drop int32) []int32 {
	var out []int32
	for _, v := range conflict.MergeInto(nil, c1, c2, drop) {
		if e.visible(v, s) {
			out = append(out, v)
		}
	}
	return out
}

func equalLists(t *testing.T, label string, got, want []int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: lengths %d vs %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d: %d vs %d", label, i, got[i], want[i])
		}
	}
}

// mergeCases splits the candidates [lo, n) into the conflict-list pairs the
// fused filter is checked on: two overlapping ascending lists with drop
// present and absent, and each list against an empty one.
func mergeCases(lo, n int32) []struct {
	name   string
	c1, c2 []int32
	drop   int32
} {
	var c1, c2 []int32
	for v := lo; v < n; v++ {
		if v%3 != 1 {
			c1 = append(c1, v)
		}
		if v%3 != 2 {
			c2 = append(c2, v)
		}
	}
	mid := c1[len(c1)/2]
	return []struct {
		name   string
		c1, c2 []int32
		drop   int32
	}{
		{"drop present", c1, c2, mid},
		{"drop absent", c1, c2, -1},
		{"empty c2", c1, nil, mid},
		{"empty c1", nil, c2, -1},
	}
}

// TestBatchFilterMatchesClosure asserts the filter contract at the kernel
// level in 3D, on a plain and on a lifted cloud: the batch paths' survivor
// lists are byte-identical to the pointwise visible predicate, including
// candidates inside the float filter's uncertain band, and the exact
// fallback actually fires (so the sidecar path is exercised, not bypassed).
// It covers the range form (FilterRange, which builds the initial conflict
// lists) and the fused merge form on full, sparse, and empty candidate
// lists, and checks the base simplex's conflict lists.
func TestBatchFilterMatchesClosure(t *testing.T) {
	span := func(lo, n int32) []int32 {
		s := make([]int32, 0, n-lo)
		for v := lo; v < n; v++ {
			s = append(s, v)
		}
		return s
	}
	pts := filterCloud(3)
	plain := engineFor(NewReuse(), pts, nil, 3, 0, false)
	facets, err := plain.initialHull()
	if err != nil {
		t.Fatal(err)
	}
	lifted, liftedFacets := liftedFilterFacets(t)
	for _, in := range []struct {
		name   string
		e      *engine
		facets []*Facet
		lo     int32 // first candidate
	}{
		{"plain", plain, facets, 4},
		{"lifted", lifted, liftedFacets, 6},
	} {
		e := in.e
		n := int32(len(e.pts))
		for _, f := range in.facets[:4] {
			equalLists(t, in.name+" initial conflict list", f.Conf, pointwiseSurvivors(e, e.slotOf(t, f), span(4, n), nil, -1))
		}
		full := span(in.lo, n)
		sparse := full[:0:0]
		for i, v := range full {
			if i%3 != 1 {
				sparse = append(sparse, v)
			}
		}
		f0 := e.rec.Fallbacks.Load()
		for _, f := range in.facets {
			s := e.slotOf(t, f)
			got := e.filter(s).FilterRange(in.lo, n, nil)
			equalLists(t, in.name+" FilterRange", got, pointwiseSurvivors(e, s, full, nil, -1))
			for _, cands := range [][]int32{full, sparse, nil} {
				got := e.filter(s).FilterMerge(cands, nil, -1, nil)
				equalLists(t, in.name+" FilterMerge", got, pointwiseSurvivors(e, s, cands, nil, -1))
			}
		}
		if e.rec.Fallbacks.Load() == f0 {
			t.Fatalf("%s: no exact fallback fired: the uncertain sidecar was never exercised", in.name)
		}
	}
}

// TestFilterMergeMatchesPointwise checks this kernel's row and exact binding
// on every stride the shared scan dispatches on (the four-wide d=2 and d=3
// loops, the generic d=4 loop), and on the lifted in-circle binding:
// survivors, order, and counter totals equal the pointwise visible predicate
// over MergeInto, on lists longer than one merge chunk, with more uncertain
// candidates than the sidecar's stack capacity, with drop present and
// absent, and against an empty list.
func TestFilterMergeMatchesPointwise(t *testing.T) {
	type input struct {
		name   string
		e      *engine
		facets []*Facet
		lo     int32 // first candidate
	}
	var inputs []input
	for _, d := range []int{2, 3, 4} {
		e := engineFor(NewReuse(), filterCloud(d), nil, d, 0, false)
		facets, err := e.initialHull()
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		inputs = append(inputs, input{fmt.Sprintf("d=%d", d), e, facets, int32(d + 1)})
	}
	e, facets := liftedFilterFacets(t)
	inputs = append(inputs, input{"lifted", e, facets, 6})
	for _, in := range inputs {
		e := in.e
		spilled, long := false, false
		for _, f := range in.facets {
			s := e.slotOf(t, f)
			for _, c := range mergeCases(in.lo, int32(len(e.pts))) {
				t0, f0 := e.rec.VTests.Load(), e.rec.Fallbacks.Load()
				want := pointwiseSurvivors(e, s, c.c1, c.c2, c.drop)
				t1, f1 := e.rec.VTests.Load(), e.rec.Fallbacks.Load()
				got := e.filter(s).FilterMerge(c.c1, c.c2, c.drop, nil)
				t2, f2 := e.rec.VTests.Load(), e.rec.Fallbacks.Load()
				equalLists(t, fmt.Sprintf("%s %s", in.name, c.name), got, want)
				if t2-t1 != t1-t0 || f2-f1 != f1-f0 {
					t.Fatalf("%s %s: fused counted %d tests / %d fallbacks, pointwise %d / %d",
						in.name, c.name, t2-t1, f2-f1, t1-t0, f1-f0)
				}
				spilled = spilled || f2-f1 > conflict.UncertainCap
				long = long || t2-t1 > conflict.MergeChunk
			}
		}
		if !spilled {
			t.Fatalf("%s: no batch had more than %d uncertain candidates", in.name, conflict.UncertainCap)
		}
		if !long {
			t.Fatalf("%s: no candidate list was longer than one merge chunk", in.name)
		}
	}
}

// TestBatchFilterNoPlaneCache pins the exact-only route: with the plane
// cache disabled both batch forms fall through to the exact predicate per
// candidate and still match the pointwise path.
func TestBatchFilterNoPlaneCache(t *testing.T) {
	for _, d := range []int{2, 3} {
		pts := filterCloud(d)
		e := engineFor(NewReuse(), pts, nil, d, 0, true)
		facets, err := e.initialHull()
		if err != nil {
			t.Fatal(err)
		}
		n := int32(len(pts))
		for _, f := range facets {
			s := e.slotOf(t, f)
			all := make([]int32, 0, n)
			for v := int32(d + 1); v < n; v++ {
				all = append(all, v)
			}
			equalLists(t, "initial conflict list", f.Conf, pointwiseSurvivors(e, s, all, nil, -1))
			for _, c := range mergeCases(int32(d+1), n) {
				got := e.filter(s).FilterMerge(c.c1, c.c2, c.drop, nil)
				equalLists(t, c.name, got, pointwiseSurvivors(e, s, c.c1, c.c2, c.drop))
			}
		}
	}
}

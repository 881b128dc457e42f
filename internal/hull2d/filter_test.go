package hull2d

import (
	"testing"

	"parhull/internal/conflict"
	"parhull/internal/geom"
	"parhull/internal/pointgen"
)

// visible is the pointwise reference of the batch filters: whether point v
// lies strictly outside edge f (strictly to the right of the directed line
// A->B), counting the test. The cached-line filter decides almost every call
// and the exact Orient2D predicate is the fallback, so the answer is always
// the exact one.
func (e *engine) visible(v int32, f *Facet) bool {
	e.rec.VTests.Inc(uint64(v))
	if eps := e.planeEps; eps > 0 {
		row := e.store.Row(v)
		s := f.nx*row[0] + f.ny*row[1] - f.off
		if s > eps {
			return true // folded line: positive certifies strictly right, visible
		}
		if s < -eps {
			return false // certified strictly left: not visible
		}
		e.rec.Fallbacks.Inc(uint64(v))
	}
	return e.exactVisible(v, f)
}

// filterTestPoints builds a 2D cloud stressing every branch of the batch
// filter: a base triangle; more points on the edge (0,0)-(4,0) than the
// uncertain sidecar's stack capacity (uncertain for it, exactly invisible —
// forcing a heap spill); points a hair below that edge (inside the static
// filter's uncertain band but exactly visible, so the sidecar's survivors
// must be value-merged back between certain survivors); and enough random
// points, clearly inside or outside, to make candidate lists longer than the
// fused merge's chunk. The non-base points are shuffled so the categories
// interleave in index order.
func filterTestPoints() []geom.Point {
	rng := pointgen.NewRNG(42)
	var rest []geom.Point
	for i := 0; i < 2*uncertainCap; i++ {
		rest = append(rest, geom.Point{0.05 + 0.08*float64(i), 0})
	}
	for i := 0; i < 6; i++ {
		rest = append(rest, geom.Point{0.5 + 0.5*float64(i), -1e-15})
	}
	for _, p := range pointgen.InCube(rng, 3*mergeChunk, 2) {
		rest = append(rest, geom.Point{2 + 4*p[0], 2 + 4*p[1]}) // [-2, 6]^2
	}
	pts := []geom.Point{{0, 0}, {4, 0}, {0, 4}} // CCW base triangle
	for _, i := range rng.Perm(len(rest)) {
		pts = append(pts, rest[i])
	}
	return pts
}

// pointwiseSurvivors is the reference the fused filter must reproduce: the
// visible predicate over the materialized merge of c1 and c2 minus drop.
func pointwiseSurvivors(e *engine, f *Facet, c1, c2 []int32, drop int32) []int32 {
	var out []int32
	for _, v := range conflict.MergeInto(nil, c1, c2, drop) {
		if e.visible(v, f) {
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
// level: the batch paths' survivor lists are byte-identical to the pointwise
// visible predicate, including candidates inside the float filter's
// uncertain band, and the exact fallback actually fires. It covers the range
// form (the initial conflict lists) and the fused merge form on full,
// sparse, and empty candidate lists.
func TestBatchFilterMatchesClosure(t *testing.T) {
	pts := filterTestPoints()
	e := newEngine(pts, 3, true, 0, 1, false)
	facets, err := e.initialHull()
	if err != nil {
		t.Fatal(err)
	}
	if e.rec.Fallbacks.Load() == 0 {
		t.Fatal("no exact fallback fired: the uncertain sidecar was never exercised")
	}
	n := int32(len(pts))
	full := make([]int32, 0, n-3)
	for v := int32(3); v < n; v++ {
		full = append(full, v)
	}
	sparse := full[:0:0]
	for i, v := range full {
		if i%3 != 1 {
			sparse = append(sparse, v)
		}
	}
	for _, f := range facets {
		equalLists(t, "initial conflict list", f.Conf, pointwiseSurvivors(e, f, full, nil, -1))
		for _, cands := range [][]int32{full, sparse, nil} {
			got := e.filterVisibleMerge(f, cands, nil, -1, nil)
			equalLists(t, "FilterMerge", got, pointwiseSurvivors(e, f, cands, nil, -1))
		}
	}
}

// TestFilterMergeMatchesPointwise is the fused filter's direct check:
// survivors, order, and counter totals equal the pointwise visible
// predicate over MergeInto, on lists longer than one merge chunk, with more
// uncertain candidates than the sidecar's stack capacity, with drop present
// and absent, and against an empty list.
func TestFilterMergeMatchesPointwise(t *testing.T) {
	pts := filterTestPoints()
	e := newEngine(pts, 3, true, 0, 1, false)
	facets, err := e.initialHull()
	if err != nil {
		t.Fatal(err)
	}
	spilled, long := false, false
	for _, f := range facets {
		for _, c := range mergeCases(3, int32(len(pts))) {
			t0, f0 := e.rec.VTests.Load(), e.rec.Fallbacks.Load()
			want := pointwiseSurvivors(e, f, c.c1, c.c2, c.drop)
			t1, f1 := e.rec.VTests.Load(), e.rec.Fallbacks.Load()
			got := e.filterVisibleMerge(f, c.c1, c.c2, c.drop, nil)
			t2, f2 := e.rec.VTests.Load(), e.rec.Fallbacks.Load()
			equalLists(t, c.name, got, want)
			if t2-t1 != t1-t0 || f2-f1 != f1-f0 {
				t.Fatalf("%s: fused counted %d tests / %d fallbacks, pointwise %d / %d",
					c.name, t2-t1, f2-f1, t1-t0, f1-f0)
			}
			spilled = spilled || f2-f1 > uncertainCap
			long = long || t2-t1 > mergeChunk
		}
	}
	if !spilled {
		t.Fatalf("no batch had more than %d uncertain candidates", uncertainCap)
	}
	if !long {
		t.Fatal("no candidate list was longer than one merge chunk")
	}
}

// TestBatchFilterNoPlaneCache pins the exact-only route: with the line cache
// disabled both batch forms fall through to the exact predicate per
// candidate and still match the pointwise path.
func TestBatchFilterNoPlaneCache(t *testing.T) {
	pts := filterTestPoints()
	e := newEngine(pts, 3, true, 0, 1, true)
	facets, err := e.initialHull()
	if err != nil {
		t.Fatal(err)
	}
	n := int32(len(pts))
	full := make([]int32, 0, n-3)
	for v := int32(3); v < n; v++ {
		full = append(full, v)
	}
	for _, f := range facets {
		equalLists(t, "initial conflict list", f.Conf, pointwiseSurvivors(e, f, full, nil, -1))
		for _, c := range mergeCases(3, n) {
			got := e.filterVisibleMerge(f, c.c1, c.c2, c.drop, nil)
			equalLists(t, c.name, got, pointwiseSurvivors(e, f, c.c1, c.c2, c.drop))
		}
	}
}

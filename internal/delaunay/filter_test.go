package delaunay

import (
	"fmt"
	"testing"

	"parhull/internal/conflict"
	"parhull/internal/geom"
	"parhull/internal/pointgen"
)

// conflict is the pointwise reference of the batch filters: whether input
// point v is strictly inside t's circumcircle, counting the test. The cached
// lifted plane decides almost every call and geom.InCircle is the exact
// fallback, so the answer is exact.
func (e *dEngine) conflict(v int32, t *Triangle) bool {
	e.rec.VTests.Inc(uint64(v))
	if t.plane.Valid() {
		s := t.plane.Eval(e.liftRow(v))
		if s > t.plane.Eps {
			return true
		}
		if s < -t.plane.Eps {
			return false
		}
		e.rec.Fallbacks.Inc(uint64(v))
	}
	return e.exactConflict(v, t)
}

// filterCloud builds a cloud stressing every branch of the batch filter for
// the triangle on its first three points: those and 33 more are the 36
// integer points of the circle x²+y² = 65², so every other lattice point is
// exactly co-circular (in the uncertain band, exactly not in conflict — more
// than the sidecar's stack capacity); copies of them pulled inward by a few
// ulps to a few hundred are exactly in conflict, and some of them land in
// the band too, so sidecar survivors must be merged back between certain
// ones; random points in [-100, 100]² lie clearly inside or outside and make
// the lists longer than one merge chunk. Everything after the triangle is
// shuffled so the categories interleave in index order.
func filterCloud() []geom.Point {
	var circle []geom.Point
	for x := -65; x <= 65; x++ {
		for y := -65; y <= 65; y++ {
			if x*x+y*y == 65*65 {
				circle = append(circle, geom.Point{float64(x), float64(y)})
			}
		}
	}
	rest := append([]geom.Point(nil), circle[3:]...)
	for i, p := range circle {
		s := 1 - float64(int(1)<<(2*(i%5)))*0x1p-52
		rest = append(rest, geom.Point{p[0] * s, p[1] * s})
	}
	rng := pointgen.NewRNG(65)
	for _, p := range pointgen.InCube(rng, 3*uncertainCap, 2) {
		rest = append(rest, geom.Point{100 * p[0], 100 * p[1]})
	}
	pts := append([]geom.Point(nil), circle[:3]...)
	for _, i := range rng.Perm(len(rest)) {
		pts = append(pts, rest[i])
	}
	return pts
}

// pointwiseSurvivors is the reference the fused filter must reproduce: the
// conflict predicate over the materialized merge of c1 and c2 minus drop.
func pointwiseSurvivors(e *dEngine, t *Triangle, c1, c2 []int32, drop int32) []int32 {
	var out []int32
	for _, v := range conflict.MergeInto(nil, c1, c2, drop) {
		if e.conflict(v, t) {
			out = append(out, v)
		}
	}
	return out
}

// TestFilterMergeMatchesPointwise is the fused in-circle filter's direct
// check: survivors, order, and counter totals of FilterMerge and FilterRange
// equal the pointwise conflict predicate, on lists longer than one merge
// chunk, with more uncertain candidates than the sidecar's stack capacity,
// with drop present and absent, against an empty list, and on the
// exact-only route with the predicate cache off.
func TestFilterMergeMatchesPointwise(t *testing.T) {
	pts := filterCloud()
	n := int32(len(pts))
	for _, noPred := range []bool{false, true} {
		e, err := newDEngine(pts, true, 0, 1, noPred)
		if err != nil {
			t.Fatal(err)
		}
		tri, err := e.makeTri(nil, 0, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		var c1, c2 []int32
		for v := int32(3); v < n; v++ {
			if v%3 != 1 {
				c1 = append(c1, v)
			}
			if v%3 != 2 {
				c2 = append(c2, v)
			}
		}
		spilled, long := false, false
		for _, c := range []struct {
			name   string
			c1, c2 []int32
			drop   int32
		}{
			{"drop present", c1, c2, c1[len(c1)/2]},
			{"drop absent", c1, c2, -1},
			{"empty c2", c1, nil, c1[1]},
			{"empty c1", nil, c2, -1},
		} {
			label := fmt.Sprintf("noPred=%v %s", noPred, c.name)
			t0, f0 := e.rec.VTests.Load(), e.rec.Fallbacks.Load()
			want := pointwiseSurvivors(e, tri, c.c1, c.c2, c.drop)
			t1, f1 := e.rec.VTests.Load(), e.rec.Fallbacks.Load()
			got := triFilter{e: e, t: tri}.FilterMerge(c.c1, c.c2, c.drop, nil)
			t2, f2 := e.rec.VTests.Load(), e.rec.Fallbacks.Load()
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: survivors %v, pointwise %v", label, got, want)
			}
			if t2-t1 != t1-t0 || f2-f1 != f1-f0 {
				t.Fatalf("%s: fused counted %d tests / %d fallbacks, pointwise %d / %d",
					label, t2-t1, f2-f1, t1-t0, f1-f0)
			}
			spilled = spilled || f2-f1 > uncertainCap
			long = long || t2-t1 > 64
		}
		flt := triFilter{e: e, t: tri}
		got, want := flt.FilterRange(3, n, nil), pointwiseSurvivors(e, tri, c1, c2, -1)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("noPred=%v FilterRange: survivors %v, pointwise %v", noPred, got, want)
		}
		if !long {
			t.Fatalf("noPred=%v: no candidate list was longer than one merge chunk", noPred)
		}
		if !noPred && !spilled {
			t.Fatalf("no batch had more than %d uncertain candidates", uncertainCap)
		}
	}
}

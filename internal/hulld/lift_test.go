package hulld

import (
	"math"
	"testing"

	"parhull/internal/conflict"
	eng "parhull/internal/engine"
	"parhull/internal/geom"
	"parhull/internal/pointgen"
)

// liftedCloud builds the input of a lifted run over the 2D points pts the
// way package delaunay's Lift does (delaunay imports this package, so its
// tests cannot): a bounding triangle 4096 times the cloud's radius first,
// then pts, and the float lifts of all of them.
func liftedCloud(pts []geom.Point) (lifted, plane []geom.Point) {
	r := 1.0
	for _, p := range pts {
		r = max(r, math.Abs(p[0]), math.Abs(p[1]))
	}
	r *= 1 << 12
	plane = append([]geom.Point{{0, 3 * r}, {-3 * r, -2 * r}, {3 * r, -2 * r}}, pts...)
	return pointgen.Lift2D(plane), plane
}

// liftedFilterCloud is the lifted twin of filterCloud, stressing every
// branch of the batch filter for the lifted facet on points 3-5: those and
// 33 more are the 36 integer points of the circle x²+y² = 65², so every
// other such point is exactly co-circular (in the uncertain band, exactly
// not in conflict — more than the sidecar's stack capacity); copies of them
// pulled inward by a few ulps to a few hundred are exactly in conflict, and
// some land in the band too, so sidecar survivors must be merged back
// between certain ones; random points in [-100, 100]² lie clearly inside or
// outside and make the lists longer than one merge chunk. Everything after
// the facet is shuffled so the categories interleave in index order.
func liftedFilterCloud() (lifted, plane []geom.Point) {
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
	for _, p := range pointgen.InCube(rng, 3*conflict.UncertainCap, 2) {
		rest = append(rest, geom.Point{100 * p[0], 100 * p[1]})
	}
	pts := append([]geom.Point(nil), circle[:3]...)
	for _, i := range rng.Perm(len(rest)) {
		pts = append(pts, rest[i])
	}
	return liftedCloud(pts)
}

// liftedFilterFacets returns a lifted engine over liftedFilterCloud and the
// facets the filter tests run on: the base simplex (the upper facet and
// three lower ones) and the co-circular facet on points 3-5, whose
// candidates start at point 6.
func liftedFilterFacets(t *testing.T) (*engine, []*Facet) {
	t.Helper()
	lifted, plane := liftedFilterCloud()
	e := engineFor(NewReuse(), lifted, plane, 3, 0, false)
	facets, err := e.initialHull()
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := e.makeFacet(eng.NewArena[Facet](), []int32{3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	return e, append(facets, f)
}

// TestLiftedFilterMatchesExactInCircle is the lifted predicate's property
// test: on every created facet of a clustered run, the bounding triangle's
// lift and the facets touching it included, the cached plane's
// classification, where it certifies, must agree with the exact InCircle
// sign — inside the circle is a conflict for a lower facet, outside it for
// the upper one — and the pointwise visible() answer must equal the exact
// answer everywhere.
func TestLiftedFilterMatchesExactInCircle(t *testing.T) {
	lifted, plane := liftedCloud(pointgen.Clustered(pointgen.NewRNG(13), 300, 2, 5, 1e-3))
	e := engineFor(NewReuse(), lifted, plane, 3, 0, false)
	res, err := Par(lifted, &Options{Lift: plane})
	if err != nil {
		t.Fatal(err)
	}
	certified, fallbacks := 0, 0
	for _, f := range res.Created() {
		probe := e.slotOf(t, f)
		if !probe.Valid() {
			t.Fatalf("facet %v has no cached plane", f.Verts)
		}
		a, b, c := plane[f.Verts[0]], plane[f.Verts[1]], plane[f.Verts[2]]
		upper := f.Verts[2] < 3
		for v := int32(3); v < int32(len(plane)); v++ {
			in := geom.InCircle(a, b, c, plane[v]) * geom.Orient2D(a, b, c) // +1 strictly inside
			exact := in > 0
			if upper {
				exact = in < 0
			}
			s := probe.Eval(e.store.Row(v))
			switch {
			case s > probe.Eps:
				if !exact {
					t.Fatalf("facet %v point %d: filter certifies a conflict, exact says no", f.Verts, v)
				}
				certified++
			case s < -probe.Eps:
				if exact {
					t.Fatalf("facet %v point %d: filter certifies no conflict, exact says yes", f.Verts, v)
				}
				certified++
			default:
				fallbacks++
			}
			if e.visible(v, probe) != exact {
				t.Fatalf("facet %v point %d: visible() != exact", f.Verts, v)
			}
		}
	}
	if certified == 0 {
		t.Fatal("the filter certified nothing — the per-facet threshold is broken")
	}
	if fallbacks > (certified+fallbacks)/10 {
		t.Fatalf("filter fell back %d of %d tests — threshold far too pessimistic", fallbacks, certified+fallbacks)
	}
}

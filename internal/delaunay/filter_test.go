package delaunay

import (
	"testing"

	"parhull/internal/conflict"
	"parhull/internal/geom"
	"parhull/internal/hulld"
	"parhull/internal/pointgen"
)

// filterCloud builds a cloud stressing every branch of the batch in-circle
// filter for the triangle on its first three points: those and 33 more are
// the 36 integer points of the circle x²+y² = 65², so every other lattice
// point is exactly co-circular (in the uncertain band, exactly not in
// conflict — more than the sidecar's stack capacity); copies of them pulled
// inward by a few ulps to a few hundred are exactly in conflict, and some of
// them land in the band too, so sidecar survivors must be merged back between
// certain ones; random points in [-100, 100]² lie clearly inside or outside
// and make the lists longer than one merge chunk. Everything after the
// triangle is shuffled so the categories interleave in index order.
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
	for _, p := range pointgen.InCube(rng, 3*conflict.UncertainCap, 2) {
		rest = append(rest, geom.Point{100 * p[0], 100 * p[1]})
	}
	pts := append([]geom.Point(nil), circle[:3]...)
	for _, i := range rng.Perm(len(rest)) {
		pts = append(pts, rest[i])
	}
	return pts
}

// TestFilterMergeMatchesPointwise is the fused in-circle filter's check on
// the lifted route, where hulld's lifted mode binds it to the shared batch
// scan: on filterCloud, under every schedule and with the plane cache on and
// off, each created triangle's conflict list is the pointwise exact answer —
// the input points strictly inside its circumcircle, ascending, and none for
// the bounding triangle's lift, whose conflicts would lie outside it. The
// cached and exact-only runs count the same in-circle tests, some list is
// longer than one merge chunk, and the cached run sends more candidates to
// the exact predicate than the sidecar holds.
func TestFilterMergeMatchesPointwise(t *testing.T) {
	pts := filterCloud()
	vtests := map[string]int64{}
	for _, r := range []struct {
		label, sched string
		opt          *hulld.Options
	}{
		{"seq", "seq", nil},
		{"par", "par", nil},
		{"par-exact", "par", &hulld.Options{NoPlaneCache: true}},
		{"rounds", "rounds", nil},
		{"rounds-exact", "rounds", &hulld.Options{NoPlaneCache: true}},
	} {
		res, plane, err := run(pts, r.sched, r.opt)
		if err != nil {
			t.Fatalf("%s: %v", r.label, err)
		}
		long := false
		for _, f := range res.Created() {
			a, b, c := plane[f.Verts[0]], plane[f.Verts[1]], plane[f.Verts[2]]
			upper := f.Verts[2] < 3
			var want []int32
			for v := int32(3); v < int32(len(plane)); v++ {
				in := geom.InCircle(a, b, c, plane[v]) * geom.Orient2D(a, b, c) // +1 strictly inside
				if in > 0 && !upper || in < 0 && upper {
					want = append(want, v)
				}
			}
			if len(f.Conf) != len(want) {
				t.Fatalf("%s: triangle %v has %d conflicts, pointwise %d", r.label, f.Verts, len(f.Conf), len(want))
			}
			for i := range want {
				if f.Conf[i] != want[i] {
					t.Fatalf("%s: triangle %v conflicts %v, pointwise %v", r.label, f.Verts, f.Conf, want)
				}
			}
			long = long || len(want) > conflict.MergeChunk
		}
		if !long {
			t.Fatalf("%s: no conflict list was longer than one merge chunk", r.label)
		}
		vtests[r.label] = res.Stats.VisibilityTests
		if r.opt == nil && res.Stats.ExactFallbacks <= conflict.UncertainCap {
			t.Fatalf("%s: %d exact fallbacks, want more than the sidecar's %d",
				r.label, res.Stats.ExactFallbacks, conflict.UncertainCap)
		}
	}
	for _, sched := range []string{"par", "rounds"} {
		if vtests[sched] != vtests[sched+"-exact"] {
			t.Fatalf("%s: %d in-circle tests cached, %d exact-only", sched, vtests[sched], vtests[sched+"-exact"])
		}
	}
}

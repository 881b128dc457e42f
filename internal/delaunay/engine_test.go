package delaunay

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"parhull/internal/geom"
	"parhull/internal/hulld"
	"parhull/internal/leakcheck"
	"parhull/internal/pointgen"
)

// run triangulates pts on the lifted hull route under one schedule: "seq",
// "par" or "rounds". opt (nil for defaults) configures the schedule; run
// sets its Lift. It also returns Lift's 2D points, which Triangles needs.
func run(pts []geom.Point, sched string, opt *hulld.Options) (*hulld.Result, []geom.Point, error) {
	plane, lifted, err := Lift(pts)
	if err != nil {
		return nil, nil, err
	}
	o := hulld.Options{}
	if opt != nil {
		o = *opt
	}
	o.Lift = plane
	var res *hulld.Result
	switch sched {
	case "seq":
		res, err = hulld.Seq(lifted, &o)
	case "par":
		res, err = hulld.Par(lifted, &o)
	case "rounds":
		res, err = hulld.Rounds(lifted, &o)
	default:
		panic("unknown schedule " + sched)
	}
	return res, plane, err
}

// sortedKey is the canonical identity of a triangle: its sorted vertex triple.
func sortedKey(k [3]int32) [3]int32 {
	if k[0] > k[1] {
		k[0], k[1] = k[1], k[0]
	}
	if k[1] > k[2] {
		k[1], k[2] = k[2], k[1]
	}
	if k[0] > k[1] {
		k[0], k[1] = k[1], k[0]
	}
	return k
}

func createdSet(created []*Triangle) map[[3]int32]int {
	m := make(map[[3]int32]int, len(created))
	for _, t := range created {
		m[sortedKey(t.Verts)]++
	}
	return m
}

// hullCreatedSet is createdSet of a lifted hull run over n input points, in
// Triangulate's numbering: hull index i+3 is input point i, and hull indices
// 0-2, the bounding triangle, are Triangulate's n, n+1, n+2.
func hullCreatedSet(res *hulld.Result, n int) map[[3]int32]int {
	created := res.Created()
	m := make(map[[3]int32]int, len(created))
	for _, f := range created {
		var k [3]int32
		for i, v := range f.Verts {
			if v < 3 {
				k[i] = int32(n) + v
			} else {
				k[i] = v - 3
			}
		}
		m[sortedKey(k)]++
	}
	return m
}

func aliveSet(res *Result) map[[3]int32]bool {
	m := make(map[[3]int32]bool, len(res.Triangles))
	for _, t := range res.Triangles {
		m[sortedKey(t.Verts)] = true
	}
	return m
}

func hullAliveSet(res *hulld.Result, plane []geom.Point) map[[3]int32]bool {
	tris := Triangles(res, plane)
	m := make(map[[3]int32]bool, len(tris))
	for _, t := range tris {
		m[sortedKey([3]int32{int32(t[0]), int32(t[1]), int32(t[2])})] = true
	}
	return m
}

func sameMultiset(t *testing.T, name string, got, want map[[3]int32]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d distinct created triangles, want %d", name, len(got), len(want))
	}
	for k, c := range want {
		if got[k] != c {
			t.Fatalf("%s: triangle %v created %d times, want %d", name, k, got[k], c)
		}
	}
}

func sameSet(t *testing.T, name string, got, want map[[3]int32]bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d alive triangles, want %d", name, len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("%s: alive triangle %v missing", name, k)
		}
	}
}

// scaled returns pts with every coordinate multiplied by s.
func scaled(pts []geom.Point, s float64) []geom.Point {
	out := make([]geom.Point, len(pts))
	for i, p := range pts {
		out[i] = geom.Point{s * p[0], s * p[1]}
	}
	return out
}

// testClouds are the inputs the lifted route must triangulate exactly as
// Triangulate does: general position, clustered, co-circular (near and
// exact), lattice and collinear ties, and clouds large enough that their
// lifts must be scaled to stay finite.
func testClouds() map[string][]geom.Point {
	clouds := map[string][]geom.Point{}
	for _, n := range []int{1, 2, 3, 10, 400} {
		clouds[fmt.Sprintf("cube-%d", n)] = pointgen.InCube(pointgen.NewRNG(int64(7+n)), n, 2)
	}
	clouds["disk-400"] = pointgen.UniformBall(pointgen.NewRNG(8), 400, 2)
	clouds["clustered-300"] = pointgen.Clustered(pointgen.NewRNG(9), 300, 2, 5, 1e-3)
	clouds["polygon-286"] = pointgen.RegularPolygon(286, 0.1)
	clouds["circle-300"] = pointgen.OnSphere(pointgen.NewRNG(10), 300, 2)
	var exact []geom.Point
	for x := -65; x <= 65; x++ {
		for y := -65; y <= 65; y++ {
			if x*x+y*y == 65*65 {
				exact = append(exact, geom.Point{float64(x), float64(y)})
			}
		}
	}
	clouds["cocircular-36"] = exact
	var lattice []geom.Point
	for x := 0; x < 15; x++ {
		for y := 0; y < 15; y++ {
			lattice = append(lattice, geom.Point{float64(x), float64(y)})
		}
	}
	clouds["lattice-15x15"] = lattice
	clouds["collinear-50+2"] = append(pointgen.Collinear2D(geom.Point{-1, -1}, geom.Point{1, 1}, 50),
		geom.Point{0.3, -0.7}, geom.Point{-0.2, 0.9})
	cube := pointgen.InCube(pointgen.NewRNG(11), 100, 2)
	clouds["cube-100-x1e152"] = scaled(cube, 1e152)
	clouds["cube-100-x1e300"] = scaled(cube, 1e300)
	return clouds
}

// TestEngineMatchesTriangulate checks the lifted route's identity: every
// schedule (Seq, Par at any width, Rounds) creates exactly the reference
// Triangulate's triangle multiset — the bounding triangle's lift standing
// for its root — and ends with the same alive set, and the plane-cache
// ablation changes nothing.
func TestEngineMatchesTriangulate(t *testing.T) {
	for name, pts := range testClouds() {
		ref, err := Triangulate(pts)
		if err != nil {
			t.Fatalf("%s Triangulate: %v", name, err)
		}
		want := createdSet(ref.Created)
		wantAlive := aliveSet(ref)
		for _, r := range []struct {
			label, sched string
			opt          *hulld.Options
		}{
			{"seq", "seq", nil},
			{"par-steal", "par", nil},
			{"par-steal-w1", "par", &hulld.Options{Workers: 1}},
			{"par-exact", "par", &hulld.Options{NoPlaneCache: true}},
			{"rounds", "rounds", nil},
		} {
			res, plane, err := run(pts, r.sched, r.opt)
			if err != nil {
				t.Fatalf("%s %s: %v", name, r.label, err)
			}
			sameMultiset(t, name+" "+r.label, hullCreatedSet(res, len(pts)), want)
			sameSet(t, name+" "+r.label, hullAliveSet(res, plane), wantAlive)
		}
	}
}

// TestEngineEmptyCircumcircle checks the lifted route's output satisfies the
// defining Delaunay property against the exact predicate.
func TestEngineEmptyCircumcircle(t *testing.T) {
	pts := pointgen.UniformBall(pointgen.NewRNG(11), 250, 2)
	res, plane, err := run(pts, "par", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Facets {
		if len(f.Conf) != 0 {
			t.Fatalf("alive facet %v has conflicts", f)
		}
	}
	tris := Triangles(res, plane)
	if len(tris) == 0 {
		t.Fatal("no triangles")
	}
	for _, tr := range tris {
		a, b, c := pts[tr[0]], pts[tr[1]], pts[tr[2]]
		if geom.Orient2D(a, b, c) <= 0 {
			t.Fatalf("triangle %v not CCW", tr)
		}
		for p := range pts {
			if geom.InCircle(a, b, c, pts[p]) > 0 {
				t.Fatalf("point %d strictly inside circumcircle of %v", p, tr)
			}
		}
	}
}

// TestEngineDegenerate checks the typed-error contract of the lifted route.
func TestEngineDegenerate(t *testing.T) {
	dup := []geom.Point{{0, 0}, {1, 0}, {0, 0}}
	for _, sched := range []string{"seq", "par", "rounds"} {
		if _, _, err := run(dup, sched, nil); !errors.Is(err, ErrDegenerate) {
			t.Fatalf("%s duplicate points: err = %v, want ErrDegenerate", sched, err)
		}
	}
	if _, _, err := run(nil, "par", nil); !errors.Is(err, ErrDegenerate) {
		t.Fatalf("empty input: err = %v, want ErrDegenerate", err)
	}
}

// TestEngineCancellation cancels up front; all pools must quiesce
// (leakcheck) and the typed context error must surface.
func TestEngineCancellation(t *testing.T) {
	leakcheck.Check(t)
	pts := pointgen.UniformBall(pointgen.NewRNG(17), 4000, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, sched := range []string{"par", "rounds", "seq"} {
		if _, _, err := run(pts, sched, &hulld.Options{Ctx: ctx}); !errors.Is(err, context.Canceled) {
			t.Fatalf("pre-canceled %s: err = %v, want context.Canceled", sched, err)
		}
	}
}

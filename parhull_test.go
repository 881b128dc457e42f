package parhull

import (
	"math"
	"sort"
	"testing"

	"parhull/internal/baseline"
	"parhull/internal/certify"
	"parhull/internal/hull2d"
	"parhull/internal/pointgen"
)

// TestHull2DEnginesAgree checks every engine against Graham's scan, and
// that every engine counts its visibility tests.
func TestHull2DEnginesAgree(t *testing.T) {
	pts := RandomPoints(500, 2, 1)
	var got [][]int
	for _, eng := range []Engine{EngineSequential, EngineParallel, EngineRounds} {
		res, err := Hull2D(pts, &Options{Engine: eng, Shuffle: true, Seed: 7})
		if err != nil {
			t.Fatalf("engine %d: %v", eng, err)
		}
		vs := append([]int(nil), res.Vertices...)
		sort.Ints(vs)
		got = append(got, vs)
		if res.Stats.VisibilityTests == 0 {
			t.Errorf("engine %d: VisibilityTests = 0, want > 0", eng)
		}
	}
	oracle := baseline.GrahamScan(pts)
	sort.Ints(oracle)
	for i, vs := range got {
		if len(vs) != len(oracle) {
			t.Fatalf("engine %d: %d vertices, oracle %d", i, len(vs), len(oracle))
		}
		for j := range vs {
			if vs[j] != oracle[j] {
				t.Fatalf("engine %d: vertex set differs", i)
			}
		}
	}
}

func TestShuffleMapsBack(t *testing.T) {
	// With and without shuffle, the *set* of hull vertices (as original
	// indices) must be identical.
	pts := RandomSpherePoints(200, 2, 2)
	a, err := Hull2D(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Hull2D(pts, &Options{Shuffle: true, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	as := append([]int(nil), a.Vertices...)
	bs := append([]int(nil), b.Vertices...)
	sort.Ints(as)
	sort.Ints(bs)
	if len(as) != len(bs) {
		t.Fatalf("sizes differ: %d vs %d", len(as), len(bs))
	}
	for i := range as {
		if as[i] != bs[i] {
			t.Fatal("vertex sets differ after shuffle mapping")
		}
	}
}

func TestHull3DAndMapKinds(t *testing.T) {
	pts := RandomSpherePoints(150, 3, 3)
	var facets int
	for _, mk := range []MapKind{MapSharded, MapCAS, MapTAS} {
		res, err := Hull3D(pts, &Options{Map: mk, Shuffle: true, Seed: 4})
		if err != nil {
			t.Fatalf("map %d: %v", mk, err)
		}
		if facets == 0 {
			facets = len(res.Facets)
		} else if facets != len(res.Facets) {
			t.Fatalf("map %d: %d facets, want %d", mk, len(res.Facets), facets)
		}
	}
	if _, err := Hull3D(RandomPoints(10, 2, 5), nil); err == nil {
		t.Fatal("Hull3D accepted 2D points")
	}
}

// rotatedCube returns the 8 corners of [-1,1]³, the four of the face z = -1
// first, then 300 points uniform on its faces, all rotated in float64 by
// three angles drawn from seed. Rounding leaves the points of each face a
// hair off a common plane, so the hull is decided by the exact fallbacks of
// the orientation predicates.
func rotatedCube(seed int64) []Point {
	rng := pointgen.NewRNG(seed)
	var pts []Point
	for _, z := range []float64{-1, 1} {
		for _, y := range []float64{-1, 1} {
			for _, x := range []float64{-1, 1} {
				pts = append(pts, Point{x, y, z})
			}
		}
	}
	for i := 0; i < 300; i++ {
		p := Point{2*rng.Float64() - 1, 2*rng.Float64() - 1, 2*rng.Float64() - 1}
		p[rng.Intn(3)] = float64(2*rng.Intn(2) - 1)
		pts = append(pts, p)
	}
	for _, axis := range []int{0, 1, 2} {
		s, c := math.Sincos(2 * math.Pi * rng.Float64())
		i, j := (axis+1)%3, (axis+2)%3
		for _, p := range pts {
			p[i], p[j] = c*p[i]-s*p[j], s*p[i]+c*p[j]
		}
	}
	return pts
}

// TestRotatedCubeCertifies builds shuffled rotated cubes on every engine
// and certifies each hull from the input alone. Their near-coplanar faces
// send many orientation tests to the exact fallback.
func TestRotatedCubeCertifies(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		pts := rotatedCube(seed)
		for _, e := range []Engine{EngineSequential, EngineParallel, EngineRounds} {
			res, err := Hull3D(pts, &Options{Engine: e, Shuffle: true, Seed: seed})
			if err != nil {
				t.Fatalf("seed %d engine %d: %v", seed, e, err)
			}
			facets := make([][]int, len(res.Facets))
			for i, f := range res.Facets {
				facets[i] = f.Vertices
			}
			if _, err := certify.Hull(pts, facets, res.Vertices); err != nil {
				t.Fatalf("seed %d engine %d: %v", seed, e, err)
			}
		}
	}
}

func TestHullD5(t *testing.T) {
	pts := RandomSpherePoints(40, 5, 6)
	res, err := HullD(pts, &Options{Engine: EngineRounds, Shuffle: true, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rounds <= 0 || len(res.Facets) == 0 {
		t.Fatalf("bad result: %+v", res.Stats)
	}
	for _, f := range res.Facets {
		if len(f.Vertices) != 5 {
			t.Fatalf("facet with %d vertices in 5D", len(f.Vertices))
		}
	}
}

func TestBadEngine(t *testing.T) {
	if _, err := Hull2D(RandomPoints(10, 2, 1), &Options{Engine: Engine(99)}); err == nil {
		t.Fatal("bad engine accepted")
	}
	if _, err := HullD(RandomPoints(10, 2, 1), &Options{Engine: Engine(99)}); err == nil {
		t.Fatal("bad engine accepted")
	}
}

func TestHalfspaceIntersectionPublic(t *testing.T) {
	normals := append(HalfspaceBoundingSimplex(3), RandomSpherePoints(40, 3, 9)...)
	res, err := HalfspaceIntersection(normals, &Options{Shuffle: true, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Vertices) < 4 {
		t.Fatalf("only %d vertices", len(res.Vertices))
	}
	for _, v := range res.Vertices {
		for i, a := range normals {
			dot := 0.0
			for k := range a {
				dot += a[k] * v.Point[k]
			}
			if dot > 1+1e-6 {
				t.Fatalf("vertex %v violates halfspace %d", v.Point, i)
			}
		}
	}
}

func TestUnitCircleIntersectionPublic(t *testing.T) {
	arcs, nonempty, err := UnitCircleIntersection([]Point{{-0.5, 0}, {0.5, 0}}, nil)
	if err != nil || !nonempty || len(arcs) != 2 {
		t.Fatalf("lens: arcs=%d nonempty=%v err=%v", len(arcs), nonempty, err)
	}
	if _, _, err := UnitCircleIntersection([]Point{{0, 0}, {0, 0}}, nil); err == nil {
		t.Fatal("duplicate centers accepted")
	}
}

// label converts a directed edge of the Figure 1 trace to the paper's
// notation, e.g. "v-c".
func label(e [2]int) string {
	return Figure1Labels[e[0]] + "-" + Figure1Labels[e[1]]
}

// TestFigure1Trace replays the paper's Figure 1 example and asserts the
// exact round-by-round behaviour described in Section 5.3 (experiment E6).
func TestFigure1Trace(t *testing.T) {
	pts, base := Figure1Points()
	res, rounds, err := Hull2DTrace(pts, base)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rounds != 3 || len(rounds) != 3 {
		t.Fatalf("rounds = %d, want 3 (paper: (a)->(b)->(c)->(d))", res.Stats.Rounds)
	}
	// Final hull: u-v, v-c, c-z, z-t, t-u.
	wantHull := []int{0, 1, 9, 5, 6}
	if len(res.Vertices) != len(wantHull) {
		t.Fatalf("hull %v, want %v", res.Vertices, wantHull)
	}
	for i := range wantHull {
		if res.Vertices[i] != wantHull[i] {
			t.Fatalf("hull %v, want %v", res.Vertices, wantHull)
		}
	}

	type ev struct{ kind, a, b string }
	collect := func(r TraceRound) []ev {
		var out []ev
		for _, e := range r.Events {
			out = append(out, ev{e.Kind.String(), label(e.A), label(e.B)})
		}
		return out
	}
	want := [][]ev{
		{ // Round 1 (Figure 1(a) -> 1(b)).
			{"created", "v-c", "v-w"}, // v-c replaces v-w
			{"created", "w-b", "w-x"},
			{"created", "x-a", "x-y"},
			{"created", "a-z", "y-z"},
			{"buried", "x-y", "y-z"}, // corner at y: both see a
			{"final", "z-t", "t-u"},
			{"final", "t-u", "u-v"},
		},
		{ // Round 2 (Figure 1(b) -> 1(c)).
			{"created", "b-a", "x-a"},
			{"created", "c-z", "a-z"},
			{"buried", "w-b", "v-w"},
			{"buried", "x-a", "w-x"},
			{"final", "v-c", "u-v"},
		},
		{ // Round 3 (Figure 1(c) -> 1(d)).
			{"buried", "b-a", "a-z"},
			{"buried", "b-a", "w-b"}, // the corner w-b-a of the paper
			{"final", "c-z", "v-c"},
			{"final", "c-z", "z-t"},
		},
	}
	for r := range want {
		got := collect(rounds[r])
		if len(got) != len(want[r]) {
			t.Fatalf("round %d: %d events %v, want %d %v", r+1, len(got), got, len(want[r]), want[r])
		}
		// Events within a round are canonically sorted by ByRound; compare
		// as sets to stay independent of tie-breaking.
		used := make([]bool, len(want[r]))
		for _, g := range got {
			found := false
			for i, w := range want[r] {
				if !used[i] && g == w {
					used[i] = true
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("round %d: unexpected event %v (all: %v)", r+1, g, got)
			}
		}
	}
	// The paper's depth observation: every new facet depends on at most two
	// earlier ones, so three rounds suffice for this example.
	if res.Stats.MaxDepth > 3 {
		t.Fatalf("max depth %d", res.Stats.MaxDepth)
	}
}

func TestFigure1VisibilityPattern(t *testing.T) {
	// The generator must match the paper's conflict sets:
	// C(v-w)={c}, C(w-x)={b,c}, C(x-y)={a,b,c}, C(y-z)={a,c}, others empty.
	pts, base := Figure1Points()
	_ = base
	edges := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 0}}
	want := map[string][]string{
		"v-w": {"c"}, "w-x": {"b", "c"}, "x-y": {"a", "b", "c"}, "y-z": {"a", "c"},
		"u-v": {}, "z-t": {}, "t-u": {},
	}
	for _, e := range edges {
		var vis []string
		for p := 7; p <= 9; p++ {
			// visible = strictly right of the directed edge.
			ax, ay := pts[e[0]][0], pts[e[0]][1]
			bx, by := pts[e[1]][0], pts[e[1]][1]
			cx, cy := pts[p][0], pts[p][1]
			if (bx-ax)*(cy-ay)-(by-ay)*(cx-ax) < 0 {
				vis = append(vis, Figure1Labels[p])
			}
		}
		key := label(e)
		w := want[key]
		if len(vis) != len(w) {
			t.Fatalf("edge %s: visible %v, want %v", key, vis, w)
		}
		for i := range w {
			if vis[i] != w[i] {
				t.Fatalf("edge %s: visible %v, want %v", key, vis, w)
			}
		}
	}
}

func TestDelaunayPublic(t *testing.T) {
	pts := RandomPoints(200, 2, 11)
	res, err := Delaunay(pts, &Options{Shuffle: true, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Triangles) < 200 {
		t.Fatalf("only %d triangles", len(res.Triangles))
	}
	// Shuffle must map indices back: all triangle vertices valid original
	// indices, and the triangulation must match the unshuffled run as a set.
	unshuffled, err := Delaunay(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	canon := func(tr [3]int) [3]int {
		sort.Ints(tr[:])
		return tr
	}
	set := map[[3]int]bool{}
	for _, tr := range unshuffled.Triangles {
		set[canon(tr)] = true
	}
	// The Delaunay triangulation is order-independent (general position),
	// up to the bounding-triangle boundary artifact; require near-total
	// agreement.
	common := 0
	for _, tr := range res.Triangles {
		if set[canon(tr)] {
			common++
		}
	}
	if common*10 < 9*len(res.Triangles) {
		t.Fatalf("only %d/%d triangles agree across insertion orders", common, len(res.Triangles))
	}
	if _, err := Delaunay([]Point{{0, 0}, {0, 0}}, nil); err == nil {
		t.Fatal("duplicates accepted")
	}
}

// TestFigure1AllEngines: the three engines agree on the Figure 1 input when
// seeded with the 7-gon (base > 3 exercises Options.Base on Seq and Par).
func TestFigure1AllEngines(t *testing.T) {
	pts, base := Figure1Points()
	want := []int{0, 1, 9, 5, 6}
	check := func(name string, got []int32) {
		if len(got) != len(want) {
			t.Fatalf("%s: hull %v, want %v", name, got, want)
		}
		for i := range want {
			if int(got[i]) != want[i] {
				t.Fatalf("%s: hull %v, want %v", name, got, want)
			}
		}
	}
	seq, err := hull2d.Seq(pts, &hull2d.Options{Base: base})
	if err != nil {
		t.Fatal(err)
	}
	check("seq", seq.Vertices)
	par, err := hull2d.Par(pts, &hull2d.Options{Base: base})
	if err != nil {
		t.Fatal(err)
	}
	check("par", par.Vertices)
	if seq.Stats.VisibilityTests != par.Stats.VisibilityTests {
		t.Fatalf("vtests differ: seq %d par %d", seq.Stats.VisibilityTests, par.Stats.VisibilityTests)
	}
	if seq.Stats.MaxDepth != 2 || par.Stats.MaxDepth != 2 {
		t.Fatalf("depth: seq %d par %d, want 2", seq.Stats.MaxDepth, par.Stats.MaxDepth)
	}
}

func TestMapCapacityOption(t *testing.T) {
	pts := RandomSpherePoints(300, 2, 13)
	res, err := Hull2D(pts, &Options{Map: MapCAS, MapCapacity: 4 * len(pts)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.HullSize == 0 {
		t.Fatal("empty hull")
	}
}

func TestRandomPointsHelpers(t *testing.T) {
	a := RandomPoints(10, 3, 1)
	b := RandomPoints(10, 3, 1)
	for i := range a {
		if !pointsEqual(a[i], b[i]) {
			t.Fatal("RandomPoints not deterministic")
		}
	}
	s := RandomSpherePoints(10, 4, 2)
	for _, p := range s {
		if len(p) != 4 {
			t.Fatal("wrong dimension")
		}
	}
}

func pointsEqual(a, b Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestHull3DDegeneratePublic(t *testing.T) {
	// The unit cube with face centers: still 6 square faces.
	var pts []Point
	for x := 0.0; x <= 1; x++ {
		for y := 0.0; y <= 1; y++ {
			for z := 0.0; z <= 1; z++ {
				pts = append(pts, Point{x, y, z})
			}
		}
	}
	pts = append(pts, Point{0.5, 0.5, 0}, Point{0.5, 0.5, 1})
	faces, err := Hull3DDegenerate(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(faces) != 6 {
		t.Fatalf("%d faces, want 6", len(faces))
	}
	for _, f := range faces {
		if len(f.Vertices) != 4 {
			t.Fatalf("face %v not a square", f.Vertices)
		}
	}
	if _, err := Hull3DDegenerate([]Point{{0, 0, 0}, {0, 0, 0}, {1, 0, 0}}, nil); err == nil {
		t.Fatal("duplicates accepted")
	}
}

package corner

import (
	"testing"

	"parhull/internal/core"
	"parhull/internal/geom"
	"parhull/internal/hulld"
	"parhull/internal/pointgen"
	"parhull/internal/stats"
)

func allOf(n int) []int {
	y := make([]int, n)
	for i := range y {
		y[i] = i
	}
	return y
}

func mustSpace(t *testing.T, pts []geom.Point) *Space {
	t.Helper()
	s, err := NewSpace(pts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSpaceChecks(t *testing.T) {
	s := mustSpace(t, pointgen.Grid3D(2))
	if _, err := core.CheckDegree(s); err != nil {
		t.Fatal(err)
	}
	if _, err := core.CheckMultiplicity(s); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateRejected(t *testing.T) {
	pts := []geom.Point{{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 0}}
	if _, err := NewSpace(pts); err == nil {
		t.Fatal("duplicates accepted")
	}
	if d := Dedup(pts); len(d) != 3 {
		t.Fatalf("Dedup: %d", len(d))
	}
}

// TestLemma61Cube: the active configurations of a cube are its 24 corners
// (4 per face), Lemma 6.1 on the canonical degenerate input.
func TestLemma61Cube(t *testing.T) {
	pts := pointgen.Grid3D(2) // the 8 cube vertices
	s := mustSpace(t, pts)
	act := core.Active(s, allOf(len(pts)))
	if len(act) != 24 {
		t.Fatalf("|T(cube)| = %d, want 24", len(act))
	}
	// Every active corner must have an actual cube vertex as corner point
	// and axis-neighbors as wings.
	for _, c := range act {
		cr := s.At(c)
		pm, pl, pr := pts[cr.M], pts[cr.L], pts[cr.R]
		if collinear(pm, pl, pr) {
			t.Fatalf("active corner %v is collinear", cr)
		}
	}
}

// TestLemma61GridAndExtras: adding interior lattice points, edge midpoints,
// and face centers leaves the corner set unchanged.
func TestLemma61GridAndExtras(t *testing.T) {
	for _, k := range []int{2, 3} {
		pts := pointgen.Grid3D(k)
		s := mustSpace(t, pts)
		act := core.Active(s, allOf(len(pts)))
		if len(act) != 24 {
			t.Fatalf("k=%d: |T(grid)| = %d, want 24", k, len(act))
		}
		// The corner points of every active configuration must be cube
		// vertices (coordinates all 0 or k-1), and wings the outermost
		// neighbors along the face boundary.
		m := float64(k - 1)
		for _, c := range act {
			cr := s.At(c)
			pm := pts[cr.M]
			for _, coord := range pm {
				if coord != 0 && coord != m {
					t.Fatalf("k=%d: active corner point %v is not a cube vertex", k, pm)
				}
			}
		}
	}
}

// TestLemma61GeneralPosition: in general position the corners are exactly
// 3 per triangular facet of the hull.
func TestLemma61GeneralPosition(t *testing.T) {
	pts := pointgen.OnSphere(pointgen.NewRNG(1), 12, 3)
	s := mustSpace(t, pts)
	act := core.Active(s, allOf(len(pts)))
	res, err := hulld.Seq(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * len(res.Facets); len(act) != want {
		t.Fatalf("|T| = %d, want 3*facets = %d", len(act), want)
	}
}

// TestLemma62Support: the corner configuration space has 4-support on
// degenerate inputs (cube plus coplanar extras) — verified exhaustively.
func TestLemma62Support(t *testing.T) {
	pts := pointgen.Grid3D(2)
	// Add two face centers and an edge midpoint (degenerate additions).
	pts = append(pts,
		geom.Point{0.5, 0.5, 0},
		geom.Point{0.5, 0.5, 1},
		geom.Point{0.5, 0, 0},
	)
	s := mustSpace(t, pts)
	if err := core.VerifySupport(s, allOf(len(pts))); err != nil {
		t.Fatal(err)
	}
}

// TestLemma62SupportGeneralPosition: 4-support also holds (trivially, the
// non-degenerate branch of the lemma) in general position.
func TestLemma62SupportGeneralPosition(t *testing.T) {
	pts := pointgen.OnSphere(pointgen.NewRNG(2), 9, 3)
	s := mustSpace(t, pts)
	if err := core.VerifySupport(s, allOf(len(pts))); err != nil {
		t.Fatal(err)
	}
}

// TestSimulateDegenerate runs the incremental process on a degenerate input
// and checks the dependence graph: supports of size <= 4 suffice and the
// depth sits below the Theorem 4.2 line with g=3, k=4.
func TestSimulateDegenerate(t *testing.T) {
	pts := pointgen.Grid3D(2)
	pts = append(pts, geom.Point{0.5, 0.5, 0}, geom.Point{0.5, 0, 0.5})
	s := mustSpace(t, pts)
	rng := pointgen.NewRNG(3)
	ok := false
	for try := 0; try < 8 && !ok; try++ {
		order := rng.Perm(len(pts))
		// Require a non-coplanar prefix of 4 so the base case is a true 3D
		// simplex (Definition 3.3 needs "sufficiently large" Y).
		p := pts
		if geom.Orient3D(p[order[0]], p[order[1]], p[order[2]], p[order[3]]) == 0 {
			continue
		}
		g, err := core.Simulate(s, order)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		if k := core.MaxSupportUsed(g); k > 4 {
			t.Fatalf("support size %d > 4", k)
		}
		bound := stats.Theorem42MinSigma(3, 4) * stats.Harmonic(len(pts))
		if float64(g.MaxDepth) >= bound {
			t.Fatalf("depth %d >= bound %.1f", g.MaxDepth, bound)
		}
		ok = true
	}
	if !ok {
		t.Fatal("no order with a non-degenerate prefix found")
	}
}

// TestConflictRuleInPlane exercises the Figure 3 cases directly on a square
// face in the z=0 plane.
func TestConflictRuleInPlane(t *testing.T) {
	// Corner at origin, wings along +x and +y; conflict side +z or -z is
	// irrelevant for coplanar tests.
	pts := []geom.Point{
		{0, 0, 0},  // 0: pm
		{2, 0, 0},  // 1: pl
		{0, 2, 0},  // 2: pr
		{3, 0, 0},  // 3: on line pm-pl beyond pl -> conflict
		{1, 0, 0},  // 4: on segment pm-pl -> no conflict
		{-1, 0, 0}, // 5: on line behind pm -> outside line pm-pr -> conflict
		{1, -1, 0}, // 6: strictly outside line pm-pl -> conflict
		{-1, 1, 0}, // 7: strictly outside line pm-pr -> conflict
		{1, 1, 0},  // 8: inside the wedge -> no conflict
		{1, 1, 5},  // 9: off-plane, +z side
		{1, 1, -5}, // 10: off-plane, -z side
	}
	s := mustSpace(t, pts)
	// Find the two configurations with pm=0, wings {1,2}.
	var cfgs []int
	for c := 0; c < s.NumConfigs(); c++ {
		cr := s.At(c)
		if cr.M == 0 && ((cr.L == 1 && cr.R == 2) || (cr.L == 2 && cr.R == 1)) {
			cfgs = append(cfgs, c)
		}
	}
	if len(cfgs) != 2 {
		t.Fatalf("found %d configs for the corner, want 2", len(cfgs))
	}
	for _, c := range cfgs {
		wantCoplanar := map[int]bool{3: true, 4: false, 5: true, 6: true, 7: true, 8: false}
		for x, want := range wantCoplanar {
			if got := s.InConflict(c, x); got != want {
				t.Errorf("config %v, point %d: conflict=%v want %v", s.At(c), x, got, want)
			}
		}
	}
	// Exactly one of the two side configurations conflicts with each
	// off-plane point.
	for _, x := range []int{9, 10} {
		a := s.InConflict(cfgs[0], x)
		b := s.InConflict(cfgs[1], x)
		if a == b {
			t.Errorf("point %d: both sides report %v", x, a)
		}
	}
}

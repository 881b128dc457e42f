package engine_test

import (
	"context"
	"testing"

	"parhull/internal/core"
	"parhull/internal/corner"
	"parhull/internal/engine"
	"parhull/internal/geom"
	"parhull/internal/pointgen"
)

// spaceFixtures are the corner-space inputs the acceptance tests cover:
// fully degenerate (cube: every face a coplanar square), degenerate with
// extra in-face and interior points, and general position for contrast.
func spaceFixtures(t *testing.T) map[string][]geom.Point {
	t.Helper()
	withExtras := append(pointgen.Grid3D(2), geom.Point{0.5, 0.5, 0}, geom.Point{0.5, 0, 0.5})
	return map[string][]geom.Point{
		"cube":          pointgen.Grid3D(2),
		"cube+faceMids": withExtras,
		"grid3":         pointgen.Grid3D(3)[:14], // coplanar clusters + interior points
		"sphere12":      pointgen.OnSphere(pointgen.NewRNG(7), 12, 3),
	}
}

// TestSpaceRoundsMatchesCore checks the tentpole acceptance criterion: the
// generic rounds engine's final active set over the corner space equals the
// brute-force core path's T(X) on degenerate fixtures, and it creates
// exactly the configurations that ever activate (the simulator's node set).
func TestSpaceRoundsMatchesCore(t *testing.T) {
	for name, pts := range spaceFixtures(t) {
		t.Run(name, func(t *testing.T) {
			s, err := corner.NewSpace(pts)
			if err != nil {
				t.Fatalf("NewSpace: %v", err)
			}
			all := make([]int, len(pts))
			for i := range all {
				all[i] = i
			}
			res, err := engine.SpaceRounds(context.Background(), nil, s, all)
			if err != nil {
				t.Fatalf("SpaceRounds: %v", err)
			}
			want := core.Active(s, all)
			if len(res.Alive) != len(want) {
				t.Fatalf("alive set size = %d, core.Active = %d", len(res.Alive), len(want))
			}
			for i := range want {
				if res.Alive[i] != want[i] {
					t.Fatalf("alive[%d] = %d, want %d", i, res.Alive[i], want[i])
				}
			}
			// SpaceRounds creates exactly the configurations active at some
			// prefix containing the base (unlike core.Simulate's node list,
			// which also counts transient activations inside the base prefix
			// that the engines never build).
			everActive := map[int]bool{}
			for j := s.BaseSize(); j <= len(all); j++ {
				for _, c := range core.Active(s, all[:j]) {
					everActive[c] = true
				}
			}
			if res.Created != len(everActive) {
				t.Errorf("created %d configurations, %d are ever active past the base", res.Created, len(everActive))
			}
			if res.Rounds <= 0 || len(res.Widths) != res.Rounds {
				t.Errorf("rounds = %d with %d widths", res.Rounds, len(res.Widths))
			}
		})
	}
}

// TestSpaceRoundsFaces checks the full degenerate-3D pipeline: the faces
// reconstructed from the engine's active set equal the ones from the core
// path (cube faces are the 6 squares).
func TestSpaceRoundsFaces(t *testing.T) {
	pts := pointgen.Grid3D(2)
	s, err := corner.NewSpace(pts)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, len(pts))
	for i := range all {
		all[i] = i
	}
	res, err := engine.SpaceRounds(context.Background(), nil, s, all)
	if err != nil {
		t.Fatal(err)
	}
	faces, err := corner.Faces(s, res.Alive)
	if err != nil {
		t.Fatal(err)
	}
	if len(faces) != 6 {
		t.Fatalf("cube has %d faces, want 6", len(faces))
	}
	for _, f := range faces {
		if len(f.Vertices) != 4 {
			t.Errorf("cube face %v is not a square", f.Vertices)
		}
	}
}

// TestSpaceRoundsValidatesOrder covers the order validation paths.
func TestSpaceRoundsValidatesOrder(t *testing.T) {
	pts := pointgen.OnSphere(pointgen.NewRNG(3), 8, 3)
	s, err := corner.NewSpace(pts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.SpaceRounds(context.Background(), nil, s, []int{0, 1}); err == nil {
		t.Error("short order accepted")
	}
	if _, err := engine.SpaceRounds(context.Background(), nil, s, []int{0, 1, 2, 2, 3}); err == nil {
		t.Error("duplicate object accepted")
	}
	if _, err := engine.SpaceRounds(context.Background(), nil, s, []int{0, 1, 2, 99}); err == nil {
		t.Error("out-of-range object accepted")
	}
}

package hull2d

import (
	"fmt"
	"testing"

	"parhull/internal/geom"
	"parhull/internal/pointgen"
)

// Cross-engine identity with the cached-line fast path on (default) and off
// (ablation): identical edge multiset, hull vertices, and visibility-test
// count — the filter only accelerates tests it can certify and defers the
// rest to the exact Orient2D predicate.

func sameResult2D(t *testing.T, label string, want, got *Result) {
	t.Helper()
	ws, gs := want.EdgeSet(), got.EdgeSet()
	if len(ws) != len(gs) {
		t.Fatalf("%s: %d distinct edges, want %d", label, len(gs), len(ws))
	}
	for k, c := range ws {
		if gs[k] != c {
			t.Fatalf("%s: edge %v multiplicity %d, want %d", label, k, gs[k], c)
		}
	}
	if len(want.Vertices) != len(got.Vertices) {
		t.Fatalf("%s: %d hull vertices, want %d", label, len(got.Vertices), len(want.Vertices))
	}
	for i := range want.Vertices {
		if want.Vertices[i] != got.Vertices[i] {
			t.Fatalf("%s: vertex cycles differ at %d", label, i)
		}
	}
	if want.Stats.VisibilityTests != got.Stats.VisibilityTests {
		t.Fatalf("%s: vtests %d, want %d", label, got.Stats.VisibilityTests, want.Stats.VisibilityTests)
	}
}

func TestPlaneCacheIdenticalOutput2D(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := pointgen.NewRNG(seed)
		for name, pts := range map[string][]geom.Point{
			"disk":   pointgen.UniformBall(rng, 400, 2),
			"circle": pointgen.OnCircle(rng, 400),
		} {
			label := func(eng string) string { return fmt.Sprintf("seed=%d %s %s", seed, name, eng) }
			exact, err := Seq(pts, &Options{NoPlaneCache: true})
			if err != nil {
				t.Fatalf("%s: %v", label("seq-noplane"), err)
			}
			if exact.Stats.PlaneCacheHits != 0 || exact.Stats.ExactFallbacks != 0 {
				t.Fatalf("%s: plane counters nonzero with cache off", label("seq-noplane"))
			}
			cached, err := Seq(pts, nil)
			if err != nil {
				t.Fatalf("%s: %v", label("seq"), err)
			}
			sameResult2D(t, label("seq"), exact, cached)
			if cached.Stats.ExactFallbacks != 0 {
				t.Errorf("%s: %d exact fallbacks on random input", label("seq"), cached.Stats.ExactFallbacks)
			}
			if cached.Stats.PlaneCacheHits != cached.Stats.VisibilityTests {
				t.Errorf("%s: %d plane hits, %d tests", label("seq"),
					cached.Stats.PlaneCacheHits, cached.Stats.VisibilityTests)
			}
			par, err := Par(pts, nil)
			if err != nil {
				t.Fatalf("%s: %v", label("par"), err)
			}
			sameResult2D(t, label("par"), exact, par)
			parOff, err := Par(pts, &Options{NoPlaneCache: true})
			if err != nil {
				t.Fatalf("%s: %v", label("par-noplane"), err)
			}
			sameResult2D(t, label("par-noplane"), exact, parOff)
			rr, _, err := Rounds(pts, nil)
			if err != nil {
				t.Fatalf("%s: %v", label("rounds"), err)
			}
			sameResult2D(t, label("rounds"), exact, rr)
		}
	}
}

// TestPlaneCacheNearDegenerate2D: a point within ~1e-16 of a hull edge's
// line cannot be certified by the static filter, so the exact predicate
// must decide it — with output identical to the determinant-only path.
func TestPlaneCacheNearDegenerate2D(t *testing.T) {
	pts := []geom.Point{
		{0, 0}, {4, 0}, {2, 3},
		{2, 1e-16},  // a hair above the bottom edge: inside, uncertifiable
		{2, -1e-16}, // a hair below: a hull vertex, uncertifiable
		{1, 1},
	}
	cached, err := Seq(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cached.Stats.ExactFallbacks == 0 {
		t.Error("no exact fallbacks on near-collinear input")
	}
	exact, err := Seq(pts, &Options{NoPlaneCache: true})
	if err != nil {
		t.Fatal(err)
	}
	sameResult2D(t, "near-degenerate", exact, cached)
}

package hulld

import (
	"testing"

	"parhull/internal/geom"
	"parhull/internal/pointgen"
)

// These tests pin the contract of the cached-hyperplane fast path: it is an
// accelerator only. With the cache on (default) or off (ablation), every
// engine must produce the identical facet multiset, hull vertices, and
// visibility-test count, because the filter falls back to the exact
// predicate whenever it cannot certify a sign.

func sameResult(t *testing.T, label string, want, got *Result) {
	t.Helper()
	ws, gs := want.FacetSet(), got.FacetSet()
	if len(ws) != len(gs) {
		t.Fatalf("%s: %d distinct facets, want %d", label, len(gs), len(ws))
	}
	for k, c := range ws {
		if gs[k] != c {
			t.Fatalf("%s: facet multiplicity differs", label)
		}
	}
	if len(want.Vertices) != len(got.Vertices) {
		t.Fatalf("%s: %d hull vertices, want %d", label, len(got.Vertices), len(want.Vertices))
	}
	for i := range want.Vertices {
		if want.Vertices[i] != got.Vertices[i] {
			t.Fatalf("%s: vertex sets differ at %d", label, i)
		}
	}
	if want.Stats.VisibilityTests != got.Stats.VisibilityTests {
		t.Fatalf("%s: vtests %d, want %d", label, got.Stats.VisibilityTests, want.Stats.VisibilityTests)
	}
}

func TestPlaneCacheIdenticalOutput(t *testing.T) {
	for _, d := range []int{2, 3, 4, 5} {
		n := 150
		if d >= 4 {
			n = 60
		}
		for _, seed := range []int64{1, 2, 3} {
			rng := pointgen.NewRNG(seed)
			for name, pts := range map[string][]geom.Point{
				"ball":   pointgen.UniformBall(rng, n, d),
				"sphere": pointgen.OnSphere(rng, n, d),
			} {
				label := func(eng string) string {
					return "d=" + string(rune('0'+d)) + " " + name + " " + eng
				}
				exact, err := Seq(pts, &Options{NoPlaneCache: true})
				if err != nil {
					t.Fatalf("%s: %v", label("seq-noplane"), err)
				}
				if exact.Stats.PlaneCacheHits != 0 || exact.Stats.ExactFallbacks != 0 {
					t.Fatalf("%s: plane counters nonzero with cache off: %+v", label("seq-noplane"), exact.Stats)
				}
				cached, err := Seq(pts, nil)
				if err != nil {
					t.Fatalf("%s: %v", label("seq"), err)
				}
				sameResult(t, label("seq"), exact, cached)
				// On well-separated random inputs the filter decides every
				// test (the ISSUE acceptance criterion).
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
				sameResult(t, label("par"), exact, par)
				parOff, err := Par(pts, &Options{NoPlaneCache: true})
				if err != nil {
					t.Fatalf("%s: %v", label("par-noplane"), err)
				}
				sameResult(t, label("par-noplane"), exact, parOff)
				rr, err := Rounds(pts, nil)
				if err != nil {
					t.Fatalf("%s: %v", label("rounds"), err)
				}
				sameResult(t, label("rounds"), exact, rr)
			}
		}
	}
}

// TestPlaneCacheDegenerateFallback drives inputs with points exactly on
// facet hyperplanes: the filter cannot certify those tests, the exact
// predicate must decide them, and the output must still match the
// determinant-only path.
func TestPlaneCacheDegenerateFallback(t *testing.T) {
	// {1,1,0} lies exactly on the plane of facet {0,1,2} (z = 0).
	pts := []geom.Point{{0, 0, 0}, {4, 0, 0}, {0, 4, 0}, {0, 0, 4}, {1, 1, 0}, {0.5, 0.5, 0.5}}
	cached, err := Seq(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cached.Stats.ExactFallbacks == 0 {
		t.Error("no exact fallbacks on a point lying on a facet plane")
	}
	exact, err := Seq(pts, &Options{NoPlaneCache: true})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "degenerate", exact, cached)

	// Near-degenerate: a point off a facet plane by ~1e-16 — representable,
	// nonzero exact sign, but below the filter threshold at this scale.
	pts2 := []geom.Point{{0, 0, 0}, {4, 0, 0}, {0, 4, 0}, {0, 0, 4}, {1, 1, 1e-16}, {2, 2, -3}}
	c2, err := Seq(pts2, nil)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := Seq(pts2, &Options{NoPlaneCache: true})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "near-degenerate", e2, c2)
	if c2.Stats.ExactFallbacks == 0 {
		t.Error("no exact fallbacks on a near-coplanar point")
	}
}

// TestPlaneCacheHighDim: above geom's plane-cache dimension cap the engines
// must silently run the exact path (zero plane counters), not fail.
func TestPlaneCacheHighDim(t *testing.T) {
	pts := pointgen.OnSphere(pointgen.NewRNG(9), 25, 9)
	res, err := Seq(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PlaneCacheHits != 0 || res.Stats.ExactFallbacks != 0 {
		t.Fatalf("plane counters nonzero in d=9: %+v", res.Stats)
	}
	exact, err := Seq(pts, &Options{NoPlaneCache: true})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "d=9", exact, res)
}

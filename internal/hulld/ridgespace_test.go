package hulld

import (
	"testing"

	"parhull/internal/core"
	"parhull/internal/pointgen"
	"parhull/internal/stats"
)

func TestRidgeSpaceChecks(t *testing.T) {
	pts := pointgen.OnSphere(pointgen.NewRNG(21), 8, 2)
	s := NewRidgeSpace(pts)
	if _, err := core.CheckDegree(s); err != nil {
		t.Fatal(err)
	}
	if _, err := core.CheckMultiplicity(s); err != nil {
		t.Fatal(err)
	}
}

// TestRidgeSpaceActives: T(Y) has one configuration per hull ridge, i.e.
// d * facets / 2 for a simplicial hull.
func TestRidgeSpaceActives(t *testing.T) {
	for _, d := range []int{2, 3} {
		pts := pointgen.OnSphere(pointgen.NewRNG(int64(22+d)), 9, d)
		s := NewRidgeSpace(pts)
		all := make([]int, len(pts))
		for i := range all {
			all[i] = i
		}
		act := core.Active(s, all)
		res, err := Seq(pts, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := d * len(res.Facets) / 2
		if len(act) != want {
			t.Fatalf("d=%d: |T| = %d, want #ridges = %d", d, len(act), want)
		}
		// Each active configuration's two facets must be hull facets.
		hull := res.FacetSet()
		for _, c := range act {
			cfg := s.cfgs[c]
			for _, apex := range []int{cfg.u, cfg.v} {
				verts := make([]int32, 0, d)
				for _, o := range cfg.ridge {
					verts = append(verts, int32(o))
				}
				verts = append(verts, int32(apex))
				sortInt32(verts)
				if hull[ridgeString(verts)] == 0 {
					t.Fatalf("d=%d: active ridge config uses non-hull facet %v", d, verts)
				}
			}
		}
	}
}

func sortInt32(a []int32) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// TestRidgeSpaceTwoSupport verifies the Section 7 claim: the ridge
// formulation has 2-support (apex removals have singleton supports, ridge
// removals supports of size two).
func TestRidgeSpaceTwoSupport(t *testing.T) {
	for _, d := range []int{2, 3} {
		pts := pointgen.OnSphere(pointgen.NewRNG(int64(30+d)), 7+d, d)
		s := NewRidgeSpace(pts)
		all := make([]int, len(pts))
		for i := range all {
			all[i] = i
		}
		if err := core.VerifySupport(s, all); err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
	}
}

func TestRidgeSpaceSimulate(t *testing.T) {
	pts := pointgen.OnSphere(pointgen.NewRNG(33), 12, 2)
	s := NewRidgeSpace(pts)
	order := pointgen.NewRNG(34).Perm(len(pts))
	g, err := core.Simulate(s, order)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if k := core.MaxSupportUsed(g); k > 2 {
		t.Fatalf("support size %d > 2", k)
	}
	bound := stats.Theorem42MinSigma(3, 2) * stats.Harmonic(len(pts))
	if float64(g.MaxDepth) >= bound {
		t.Fatalf("depth %d >= %.1f", g.MaxDepth, bound)
	}
}

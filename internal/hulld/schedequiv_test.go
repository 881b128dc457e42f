package hulld

import (
	"fmt"
	"testing"

	"parhull/internal/geom"
	"parhull/internal/leakcheck"
	"parhull/internal/pointgen"
)

// TestParSchedEquivalence is the cross-schedule contract of Theorem 5.5:
// Algorithm 3 performs the same facet creations under any legal schedule,
// so the sequential Algorithm 2 loop, the work-stealing Par (one-shot, and
// twice on one retained Reuse), and the round-synchronous Rounds must
// produce the identical facet multiset, vertex set, visibility-test count,
// and maximum dependence depth on fixed seeds — only the order (and the
// arena backing the memory) differs.
func TestParSchedEquivalence(t *testing.T) {
	leakcheck.Check(t)
	ru := NewReuse()
	defer ru.Close()
	for _, d := range []int{2, 3, 4} {
		n := 150
		if d == 4 {
			n = 80
		}
		for name, pts := range map[string][]geom.Point{
			"ball":   pointgen.UniformBall(pointgen.NewRNG(int64(11+d)), n, d),
			"sphere": pointgen.OnSphere(pointgen.NewRNG(int64(21+d)), n, d),
		} {
			ref, err := Seq(pts, nil)
			if err != nil {
				t.Fatalf("d=%d %s seq: %v", d, name, err)
			}
			check := func(sched string, r *Result, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("d=%d %s %s: %v", d, name, sched, err)
				}
				if got, want := fmt.Sprint(r.Vertices), fmt.Sprint(ref.Vertices); got != want {
					t.Fatalf("d=%d %s %s: vertices %s, seq %s", d, name, sched, got, want)
				}
				sameFacets(t, fmt.Sprintf("d=%d %s %s vs seq", d, name, sched), r, ref)
				if r.Stats.VisibilityTests != ref.Stats.VisibilityTests {
					t.Fatalf("d=%d %s %s: vtests %d, seq %d", d, name, sched,
						r.Stats.VisibilityTests, ref.Stats.VisibilityTests)
				}
				if r.Stats.MaxDepth != ref.Stats.MaxDepth {
					t.Fatalf("d=%d %s %s: depth %d, seq %d", d, name, sched,
						r.Stats.MaxDepth, ref.Stats.MaxDepth)
				}
			}
			r, err := Par(pts, nil)
			check("par", r, err)
			verifyHull(t, pts, r)
			for i := 0; i < 2; i++ {
				r, err = Par(pts, &Options{Reuse: ru})
				check(fmt.Sprintf("par on a reuse (run %d)", i+1), r, err)
			}
			r, err = Rounds(pts, nil)
			check("rounds", r, err)
		}
	}
}

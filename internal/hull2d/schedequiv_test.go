package hull2d

import (
	"fmt"
	"testing"

	"parhull/internal/geom"
	"parhull/internal/leakcheck"
	"parhull/internal/pointgen"
)

// TestParSchedEquivalence is the cross-schedule contract of Theorem 5.5 in
// 2D: the sequential Algorithm 2 loop, the work-stealing Par (one-shot, and
// twice on one retained Reuse), and the round-synchronous Rounds must create
// the identical edge multiset, hull, visibility-test count, and maximum
// dependence depth on fixed seeds — the schedule and the arena backing the
// memory are the only differences.
func TestParSchedEquivalence(t *testing.T) {
	leakcheck.Check(t)
	ru := NewReuse()
	defer ru.Close()
	for name, pts := range map[string][]geom.Point{
		"disk":   pointgen.UniformBall(pointgen.NewRNG(17), 400, 2),
		"circle": pointgen.OnCircle(pointgen.NewRNG(18), 400),
	} {
		ref, err := Seq(pts)
		if err != nil {
			t.Fatalf("%s seq: %v", name, err)
		}
		want := ref.EdgeSet()
		check := func(sched string, r *Result, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s %s: %v", name, sched, err)
			}
			if got, want := fmt.Sprint(r.Vertices), fmt.Sprint(ref.Vertices); got != want {
				t.Fatalf("%s %s: vertices %s, seq %s", name, sched, got, want)
			}
			got := r.EdgeSet()
			if len(got) != len(want) {
				t.Fatalf("%s %s: %d distinct edges, seq %d", name, sched, len(got), len(want))
			}
			for e, c := range want {
				if got[e] != c {
					t.Fatalf("%s %s: edge %v created %d times, seq %d", name, sched, e, got[e], c)
				}
			}
			if r.Stats.VisibilityTests != ref.Stats.VisibilityTests {
				t.Fatalf("%s %s: vtests %d, seq %d", name, sched,
					r.Stats.VisibilityTests, ref.Stats.VisibilityTests)
			}
			if r.Stats.MaxDepth != ref.Stats.MaxDepth {
				t.Fatalf("%s %s: depth %d, seq %d", name, sched, r.Stats.MaxDepth, ref.Stats.MaxDepth)
			}
		}
		r, err := Par(pts, nil)
		check("par", r, err)
		for i := 0; i < 2; i++ {
			r, err = Par(pts, &Options{Reuse: ru})
			check(fmt.Sprintf("par on a reuse (run %d)", i+1), r, err)
		}
		r, _, err = Rounds(pts, nil)
		check("rounds", r, err)
	}
}

package delaunay

import (
	"testing"

	"parhull/internal/geom"
	"parhull/internal/pointgen"
)

// TestParSchedEquivalence is the cross-schedule contract of Theorem 5.5 on
// the lifted route: the sequential Algorithm 2 loop, the work-stealing Par
// (run twice, to catch schedule-dependent drift), and the round-synchronous
// Rounds must create the identical triangle multiset, end with the same
// alive set, and agree on the in-circle test count and the maximum
// dependence depth.
func TestParSchedEquivalence(t *testing.T) {
	for name, pts := range map[string][]geom.Point{
		"disk":   pointgen.UniformBall(pointgen.NewRNG(31), 400, 2),
		"square": pointgen.InCube(pointgen.NewRNG(32), 400, 2),
	} {
		ref, plane, err := run(pts, "seq", nil)
		if err != nil {
			t.Fatalf("%s seq: %v", name, err)
		}
		want, wantAlive := hullCreatedSet(ref, len(pts)), hullAliveSet(ref, plane)
		for _, r := range []struct{ label, sched string }{
			{"par", "par"},
			{"par (run 2)", "par"},
			{"rounds", "rounds"},
		} {
			res, _, err := run(pts, r.sched, nil)
			if err != nil {
				t.Fatalf("%s %s: %v", name, r.label, err)
			}
			sameMultiset(t, name+" "+r.label, hullCreatedSet(res, len(pts)), want)
			sameSet(t, name+" "+r.label, hullAliveSet(res, plane), wantAlive)
			if res.Stats.VisibilityTests != ref.Stats.VisibilityTests {
				t.Fatalf("%s %s: in-circle tests %d, seq %d", name, r.label,
					res.Stats.VisibilityTests, ref.Stats.VisibilityTests)
			}
			if res.Stats.MaxDepth != ref.Stats.MaxDepth {
				t.Fatalf("%s %s: depth %d, seq %d", name, r.label, res.Stats.MaxDepth, ref.Stats.MaxDepth)
			}
		}
	}
}

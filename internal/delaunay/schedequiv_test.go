package delaunay

import (
	"testing"

	"parhull/internal/geom"
	"parhull/internal/pointgen"
)

// TestParSchedEquivalence is the cross-schedule contract of Theorem 5.5 for
// the Delaunay kernel: the sequential Algorithm 2 loop, the work-stealing
// Par (run twice, to catch schedule-dependent drift), and the
// round-synchronous Rounds must create the identical triangle multiset, end
// with the same alive set, and agree on the in-circle test count and the
// maximum dependence depth.
func TestParSchedEquivalence(t *testing.T) {
	for name, pts := range map[string][]geom.Point{
		"disk":   pointgen.UniformBall(pointgen.NewRNG(31), 400, 2),
		"square": pointgen.InCube(pointgen.NewRNG(32), 400, 2),
	} {
		ref, err := Seq(pts, nil)
		if err != nil {
			t.Fatalf("%s seq: %v", name, err)
		}
		want, wantAlive := createdSet(ref.Created), aliveSet(ref)
		for _, r := range []struct {
			sched string
			run   func() (*Result, error)
		}{
			{"par", func() (*Result, error) { return Par(pts, nil) }},
			{"par (run 2)", func() (*Result, error) { return Par(pts, nil) }},
			{"rounds", func() (*Result, error) { return Rounds(pts, nil) }},
		} {
			res, err := r.run()
			if err != nil {
				t.Fatalf("%s %s: %v", name, r.sched, err)
			}
			sameMultiset(t, name+" "+r.sched, createdSet(res.Created), want)
			got := aliveSet(res)
			if len(got) != len(wantAlive) {
				t.Fatalf("%s %s: %d alive triangles, seq %d", name, r.sched, len(got), len(wantAlive))
			}
			for k := range wantAlive {
				if !got[k] {
					t.Fatalf("%s %s: alive triangle %v missing", name, r.sched, k)
				}
			}
			if res.Stats.VisibilityTests != ref.Stats.VisibilityTests {
				t.Fatalf("%s %s: in-circle tests %d, seq %d", name, r.sched,
					res.Stats.VisibilityTests, ref.Stats.VisibilityTests)
			}
			if res.Stats.MaxDepth != ref.Stats.MaxDepth {
				t.Fatalf("%s %s: depth %d, seq %d", name, r.sched, res.Stats.MaxDepth, ref.Stats.MaxDepth)
			}
		}
	}
}

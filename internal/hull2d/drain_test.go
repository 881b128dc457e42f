package hull2d

import (
	"fmt"
	"runtime"
	"testing"

	"parhull/internal/conmap"
	"parhull/internal/geom"
	"parhull/internal/leakcheck"
	"parhull/internal/pointgen"
)

// TestRidgeTableDrains: with a conmap sharded table installed in place of
// the vertex slots, every ridge (hull vertex) a build registers is met by
// its second edge, which removes it, so a construction that succeeds
// leaves the table empty — under Par and Rounds at Workers 1, 2 and 4,
// one-shot and on a retained Reuse, on a disk and a circle. Every run must
// also create the edges Seq creates.
func TestRidgeTableDrains(t *testing.T) {
	leakcheck.Check(t)
	old := runtime.GOMAXPROCS(0)
	if old < 4 {
		runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(old)
	}
	ru := NewReuse()
	defer ru.Close()
	for name, pts := range map[string][]geom.Point{
		"disk":   pointgen.UniformBall(pointgen.NewRNG(61), 3000, 2),
		"circle": pointgen.OnCircle(pointgen.NewRNG(62), 3000),
	} {
		ref, err := Seq(pts, nil)
		if err != nil {
			t.Fatalf("%s seq: %v", name, err)
		}
		m := conmap.NewShardedMap[*Facet](0)
		for _, w := range []int{1, 2, 4} {
			for _, sched := range []struct {
				name string
				run  func([]geom.Point, *Options) (*Result, error)
			}{
				{"par", Par},
				{"rounds", func(pts []geom.Point, o *Options) (*Result, error) {
					r, _, err := Rounds(pts, o)
					return r, err
				}},
			} {
				for i, reuse := range []*Reuse{nil, ru, ru} {
					label := fmt.Sprintf("%s %s workers=%d run %d (reuse %v)", name, sched.name, w, i, reuse != nil)
					r, err := sched.run(pts, &Options{Map: m, Workers: w, Reuse: reuse})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if r.Stats.FacetsCreated != ref.Stats.FacetsCreated {
						t.Fatalf("%s: created %d edges, seq %d", label, r.Stats.FacetsCreated, ref.Stats.FacetsCreated)
					}
					if n := m.Len(); n != 0 {
						t.Fatalf("%s: %d ridges left in the table", label, n)
					}
				}
			}
		}
	}
}

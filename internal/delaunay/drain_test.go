package delaunay

import (
	"fmt"
	"runtime"
	"testing"

	"parhull/internal/conmap"
	"parhull/internal/geom"
	"parhull/internal/hulld"
	"parhull/internal/leakcheck"
	"parhull/internal/pointgen"
)

// TestRidgeTableDrains: on the lifted route every Delaunay edge a build
// registers in the sharded table is met by its second triangle, which
// removes it, so a triangulation that succeeds leaves the table empty —
// under Par and Rounds at Workers 1, 2 and 4, one-shot and on a retained
// Reuse. Every run must also create the triangles Seq creates.
func TestRidgeTableDrains(t *testing.T) {
	leakcheck.Check(t)
	old := runtime.GOMAXPROCS(0)
	if old < 4 {
		runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(old)
	}
	ru := hulld.NewReuse()
	defer ru.Close()
	for name, pts := range map[string][]geom.Point{
		"disk":   pointgen.UniformBall(pointgen.NewRNG(71), 800, 2),
		"square": pointgen.InCube(pointgen.NewRNG(72), 800, 2),
	} {
		ref, _, err := run(pts, "seq", nil)
		if err != nil {
			t.Fatalf("%s seq: %v", name, err)
		}
		want := hullCreatedSet(ref, len(pts))
		m := conmap.NewShardedMap[*hulld.Facet](0)
		for _, w := range []int{1, 2, 4} {
			for _, sched := range []string{"par", "rounds"} {
				for i, reuse := range []*hulld.Reuse{nil, ru, ru} {
					label := fmt.Sprintf("%s %s workers=%d run %d (reuse %v)", name, sched, w, i, reuse != nil)
					res, _, err := run(pts, sched, &hulld.Options{Map: m, Workers: w, Reuse: reuse})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					sameMultiset(t, label, hullCreatedSet(res, len(pts)), want)
					if n := m.Len(); n != 0 {
						t.Fatalf("%s: %d edges left in the table", label, n)
					}
				}
			}
		}
	}
}

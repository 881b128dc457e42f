package hulld

import (
	"fmt"
	"runtime"
	"testing"

	"parhull/internal/conmap"
	"parhull/internal/geom"
	"parhull/internal/leakcheck"
	"parhull/internal/pointgen"
)

// TestRidgeTableDrains: Algorithm 3 reads a ridge's entry only until its
// second facet arrives (lines 20–22), and the sharded table removes it
// then, so a construction that succeeds leaves the table empty. Every
// ridge a build registers is met by its partner. This holds under Par and
// Rounds at Workers 1, 2 and 4, one-shot and on a retained Reuse, for
// d = 2..5 (one-index, exact two-index and long keys) and the lifted
// (Delaunay) mode; every run must also create the facets Seq creates.
func TestRidgeTableDrains(t *testing.T) {
	leakcheck.Check(t)
	old := runtime.GOMAXPROCS(0)
	if old < 4 {
		runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(old)
	}
	lifted, plane := liftedCloud(pointgen.UniformBall(pointgen.NewRNG(51), 600, 2))
	inputs := []struct {
		name string
		pts  []geom.Point
		lift []geom.Point
	}{
		{"d=2", pointgen.OnSphere(pointgen.NewRNG(52), 800, 2), nil},
		{"d=3", pointgen.OnSphere(pointgen.NewRNG(53), 800, 3), nil},
		{"d=4", pointgen.OnSphere(pointgen.NewRNG(54), 200, 4), nil},
		{"d=5", pointgen.UniformBall(pointgen.NewRNG(55), 120, 5), nil},
		{"lifted", lifted, plane},
	}
	ru := NewReuse()
	defer ru.Close()
	for _, in := range inputs {
		ref, err := Seq(in.pts, &Options{Lift: in.lift})
		if err != nil {
			t.Fatalf("%s seq: %v", in.name, err)
		}
		m := conmap.NewShardedMap[*Facet](0)
		for _, w := range []int{1, 2, 4} {
			for _, sched := range []struct {
				name string
				run  func([]geom.Point, *Options) (*Result, error)
			}{{"par", Par}, {"rounds", Rounds}} {
				for i, reuse := range []*Reuse{nil, ru, ru} {
					label := fmt.Sprintf("%s %s workers=%d run %d (reuse %v)", in.name, sched.name, w, i, reuse != nil)
					r, err := sched.run(in.pts, &Options{Map: m, Workers: w, Reuse: reuse, Lift: in.lift})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if r.Stats.FacetsCreated != ref.Stats.FacetsCreated {
						t.Fatalf("%s: created %d facets, seq %d", label, r.Stats.FacetsCreated, ref.Stats.FacetsCreated)
					}
					if n := m.Len(); n != 0 {
						t.Fatalf("%s: %d ridges left in the table", label, n)
					}
				}
			}
		}
	}
}

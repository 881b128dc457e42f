package hulld

import (
	"fmt"
	"runtime"
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
// created count, and depth histogram (so also maximum depth) on fixed seeds
// — only the order (and the arena backing the memory) differs. Every run's
// creation stats must also agree with its own Result.Created(), the walk of
// its arenas they are read from.
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
			sameCreationRecord(t, fmt.Sprintf("d=%d %s seq", d, name), len(ref.Created()), ref.Stats)
			check := func(sched string, r *Result, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("d=%d %s %s: %v", d, name, sched, err)
				}
				sameCreationRecord(t, fmt.Sprintf("d=%d %s %s", d, name, sched), len(r.Created()), r.Stats)
				if got, want := fmt.Sprint(r.Vertices), fmt.Sprint(ref.Vertices); got != want {
					t.Fatalf("d=%d %s %s: vertices %s, seq %s", d, name, sched, got, want)
				}
				sameFacets(t, fmt.Sprintf("d=%d %s %s vs seq", d, name, sched), r, ref)
				if r.Stats.VisibilityTests != ref.Stats.VisibilityTests {
					t.Fatalf("d=%d %s %s: vtests %d, seq %d", d, name, sched,
						r.Stats.VisibilityTests, ref.Stats.VisibilityTests)
				}
				if r.Stats.MaxDepth != ref.Stats.MaxDepth || r.Stats.FacetsCreated != ref.Stats.FacetsCreated ||
					fmt.Sprint(r.Stats.DepthHist) != fmt.Sprint(ref.Stats.DepthHist) {
					t.Fatalf("d=%d %s %s: depth %d created %d hist %v, seq %d %d %v", d, name, sched,
						r.Stats.MaxDepth, r.Stats.FacetsCreated, r.Stats.DepthHist,
						ref.Stats.MaxDepth, ref.Stats.FacetsCreated, ref.Stats.DepthHist)
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
			r, err = Rounds(pts, &Options{Reuse: ru})
			check("rounds on a reuse", r, err)
		}
	}
}

// sameCreationRecord requires a run's creation stats to describe its own
// created facets: len(Result.Created()) == FacetsCreated == ΣDepthHist, with
// MaxDepth the histogram's last bin, which is occupied.
func sameCreationRecord(t *testing.T, label string, created int, s Stats) {
	t.Helper()
	sum := 0
	for _, c := range s.DepthHist {
		sum += c
	}
	if int64(created) != s.FacetsCreated || int64(sum) != s.FacetsCreated {
		t.Fatalf("%s: %d created facets, FacetsCreated %d, ΣDepthHist %d", label, created, s.FacetsCreated, sum)
	}
	if len(s.DepthHist) != s.MaxDepth+1 || s.DepthHist[s.MaxDepth] == 0 {
		t.Fatalf("%s: MaxDepth %d does not end DepthHist %v", label, s.MaxDepth, s.DepthHist)
	}
}

// TestRoundsWidthInvariance pins what Rounds reports about the dependence
// structure. A task's round is fixed by the input order — it is one more
// than the round of the step that readied it — so Stats.Rounds and
// RoundWidths must be identical at every Workers width, one-shot and on a
// retained Reuse (twice, the second time on warm next-round buffers), along
// with the facet multiset and the depth. It runs at GOMAXPROCS >= 4 so that
// widths 2 and 4 really interleave.
func TestRoundsWidthInvariance(t *testing.T) {
	leakcheck.Check(t)
	old := runtime.GOMAXPROCS(0)
	if old < 4 {
		runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(old)
	}
	pts := pointgen.OnSphere(pointgen.NewRNG(41), 3000, 3)
	ref, err := Rounds(pts, &Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Stats.Rounds != len(ref.Stats.RoundWidths) || ref.Stats.RoundWidths[0] != 6 {
		t.Fatalf("rounds %d, widths %v: want one width per round, starting with the simplex's 6 ridges",
			ref.Stats.Rounds, ref.Stats.RoundWidths)
	}
	ru := NewReuse()
	defer ru.Close()
	for _, w := range []int{1, 2, 4} {
		for i, reuse := range []*Reuse{nil, ru, ru} {
			label := fmt.Sprintf("workers=%d run %d (reuse %v)", w, i, reuse != nil)
			r, err := Rounds(pts, &Options{Workers: w, Reuse: reuse})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if r.Stats.Rounds != ref.Stats.Rounds || fmt.Sprint(r.Stats.RoundWidths) != fmt.Sprint(ref.Stats.RoundWidths) {
				t.Fatalf("%s: rounds %d widths %v, want %d %v", label,
					r.Stats.Rounds, r.Stats.RoundWidths, ref.Stats.Rounds, ref.Stats.RoundWidths)
			}
			if r.Stats.MaxDepth != ref.Stats.MaxDepth {
				t.Fatalf("%s: depth %d, want %d", label, r.Stats.MaxDepth, ref.Stats.MaxDepth)
			}
			sameFacets(t, label, r, ref)
		}
	}
}

// TestParallelFilterPathEquivalence forces the chunked parallel conflict
// filter inside the real engine (tiny grain, at least four procs) and
// requires results identical to the serial path. The chunks run on other
// goroutines and read the plane slot of the worker that made the facet, so
// this is the check that a slot lives until its facet's filter is done: on a
// 3D sphere, a 4D ball and a lifted (Delaunay) cloud, under Par (one-shot
// and on a retained Reuse) and Rounds, the created-facet multiset, the
// visibility-test and exact-fallback counts, and the depth must all match.
func TestParallelFilterPathEquivalence(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	if old < 4 {
		runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(old)
	}
	ru := NewReuse()
	defer ru.Close()
	lifted, plane := liftedCloud(pointgen.Clustered(pointgen.NewRNG(31), 1500, 2, 5, 1e-3))
	for _, in := range []struct {
		name string
		pts  []geom.Point
		lift []geom.Point
	}{
		{"sphere3d", pointgen.OnSphere(pointgen.NewRNG(32), 2000, 3), nil},
		{"ball4d", pointgen.UniformBall(pointgen.NewRNG(33), 1000, 4), nil},
		{"lifted", lifted, plane},
	} {
		type run struct {
			name  string
			build func(pts []geom.Point, o *Options) (*Result, error)
			reuse *Reuse
		}
		for _, r := range []run{{"par", Par, nil}, {"par-on-reuse", Par, ru}, {"rounds", Rounds, nil}} {
			serial, err := r.build(in.pts, &Options{Lift: in.lift, FilterGrain: 1 << 62})
			if err != nil {
				t.Fatalf("%s %s serial: %v", in.name, r.name, err)
			}
			par, err := r.build(in.pts, &Options{Lift: in.lift, FilterGrain: 64, Reuse: r.reuse})
			if err != nil {
				t.Fatalf("%s %s grain 64: %v", in.name, r.name, err)
			}
			s, p := serial.Stats, par.Stats
			if s.VisibilityTests != p.VisibilityTests || s.ExactFallbacks != p.ExactFallbacks ||
				s.FacetsCreated != p.FacetsCreated || s.MaxDepth != p.MaxDepth {
				t.Fatalf("%s %s: parallel filter changed results: vtests %d/%d fallbacks %d/%d created %d/%d depth %d/%d",
					in.name, r.name, s.VisibilityTests, p.VisibilityTests, s.ExactFallbacks, p.ExactFallbacks,
					s.FacetsCreated, p.FacetsCreated, s.MaxDepth, p.MaxDepth)
			}
			sameFacets(t, fmt.Sprintf("%s %s grain 64 vs serial", in.name, r.name), par, serial)
		}
	}
}

package hull2d

import (
	"fmt"
	"runtime"
	"testing"

	"parhull/internal/geom"
	"parhull/internal/leakcheck"
	"parhull/internal/pointgen"
)

// TestParSchedEquivalence is the cross-schedule contract of Theorem 5.5 in
// 2D: the sequential Algorithm 2 loop, the work-stealing Par (one-shot, and
// twice on one retained Reuse), and the round-synchronous Rounds must create
// the identical edge multiset, hull, visibility-test count, created count,
// and depth histogram (so also maximum depth) on fixed seeds — the schedule
// and the arena backing the memory are the only differences. Every run's
// creation stats must also agree with its own Result.Created(), the walk of
// its arenas they are read from.
func TestParSchedEquivalence(t *testing.T) {
	leakcheck.Check(t)
	ru := NewReuse()
	defer ru.Close()
	for name, pts := range map[string][]geom.Point{
		"disk":   pointgen.UniformBall(pointgen.NewRNG(17), 400, 2),
		"circle": pointgen.OnCircle(pointgen.NewRNG(18), 400),
	} {
		ref, err := Seq(pts, nil)
		if err != nil {
			t.Fatalf("%s seq: %v", name, err)
		}
		sameCreationRecord(t, name+" seq", len(ref.Created()), ref.Stats)
		want := ref.EdgeSet()
		check := func(sched string, r *Result, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s %s: %v", name, sched, err)
			}
			sameCreationRecord(t, name+" "+sched, len(r.Created()), r.Stats)
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
			if r.Stats.MaxDepth != ref.Stats.MaxDepth || r.Stats.FacetsCreated != ref.Stats.FacetsCreated ||
				fmt.Sprint(r.Stats.DepthHist) != fmt.Sprint(ref.Stats.DepthHist) {
				t.Fatalf("%s %s: depth %d created %d hist %v, seq %d %d %v", name, sched,
					r.Stats.MaxDepth, r.Stats.FacetsCreated, r.Stats.DepthHist,
					ref.Stats.MaxDepth, ref.Stats.FacetsCreated, ref.Stats.DepthHist)
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
		r, _, err = Rounds(pts, &Options{Reuse: ru})
		check("rounds on a reuse", r, err)
	}
}

// sameCreationRecord requires a run's creation stats to describe its own
// created edges: len(Result.Created()) == FacetsCreated == ΣDepthHist, with
// MaxDepth the histogram's last bin, which is occupied.
func sameCreationRecord(t *testing.T, label string, created int, s Stats) {
	t.Helper()
	sum := 0
	for _, c := range s.DepthHist {
		sum += c
	}
	if int64(created) != s.FacetsCreated || int64(sum) != s.FacetsCreated {
		t.Fatalf("%s: %d created edges, FacetsCreated %d, ΣDepthHist %d", label, created, s.FacetsCreated, sum)
	}
	if len(s.DepthHist) != s.MaxDepth+1 || s.DepthHist[s.MaxDepth] == 0 {
		t.Fatalf("%s: MaxDepth %d does not end DepthHist %v", label, s.MaxDepth, s.DepthHist)
	}
}

// TestRoundsWidthInvariance pins what Rounds reports about the dependence
// structure in 2D. A task's round is fixed by the input order — it is one
// more than the round of the step that readied it — so Stats.Rounds and
// RoundWidths must be identical at every Workers width, one-shot and on a
// retained Reuse (twice, the second time on warm next-round buffers), along
// with the edge multiset and the depth. It runs at GOMAXPROCS >= 4 so that
// widths 2 and 4 really interleave.
func TestRoundsWidthInvariance(t *testing.T) {
	leakcheck.Check(t)
	old := runtime.GOMAXPROCS(0)
	if old < 4 {
		runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(old)
	}
	pts := pointgen.OnCircle(pointgen.NewRNG(42), 20000)
	ref, _, err := Rounds(pts, &Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Stats.Rounds != len(ref.Stats.RoundWidths) || ref.Stats.RoundWidths[0] != 3 {
		t.Fatalf("rounds %d, widths %v: want one width per round, starting with the triangle's 3 corners",
			ref.Stats.Rounds, ref.Stats.RoundWidths)
	}
	want := ref.EdgeSet()
	ru := NewReuse()
	defer ru.Close()
	for _, w := range []int{1, 2, 4} {
		for i, reuse := range []*Reuse{nil, ru, ru} {
			label := fmt.Sprintf("workers=%d run %d (reuse %v)", w, i, reuse != nil)
			r, _, err := Rounds(pts, &Options{Workers: w, Reuse: reuse})
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
			got := r.EdgeSet()
			if len(got) != len(want) {
				t.Fatalf("%s: %d distinct edges, want %d", label, len(got), len(want))
			}
			for e, c := range want {
				if got[e] != c {
					t.Fatalf("%s: edge %v created %d times, want %d", label, e, got[e], c)
				}
			}
		}
	}
}

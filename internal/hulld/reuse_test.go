package hulld

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"parhull/internal/conmap"
	eng "parhull/internal/engine"
	"parhull/internal/faultinject"
	"parhull/internal/leakcheck"
	"parhull/internal/pointgen"
	"parhull/internal/sched"
)

// TestReuseMatchesFresh runs consecutive Par calls on one Reuse with varying
// inputs and checks each against a fresh Par: identical facet output.
func TestReuseMatchesFresh(t *testing.T) {
	leakcheck.Check(t)
	ru := NewReuse()
	defer ru.Close()
	inputs := [][]int{{800, 3}, {2000, 3}, {500, 4}, {1200, 3}}
	for round := 0; round < 2; round++ {
		for i, in := range inputs {
			pts := pointgen.UniformBall(pointgen.NewRNG(int64(i+1)), in[0], in[1])
			got, err := Par(pts, &Options{Reuse: ru})
			if err != nil {
				t.Fatalf("round %d input %d: reused Par: %v", round, i, err)
			}
			fresh, err := Par(pts, nil)
			if err != nil {
				t.Fatalf("round %d input %d: fresh Par: %v", round, i, err)
			}
			if !reflect.DeepEqual(got.Vertices, fresh.Vertices) {
				t.Fatalf("round %d input %d: vertices differ", round, i)
			}
			if len(got.Facets) != len(fresh.Facets) {
				t.Fatalf("round %d input %d: facet count %d vs %d",
					round, i, len(got.Facets), len(fresh.Facets))
			}
		}
	}
}

// TestReusePanicRecovery injects a worker panic mid-construction on a pooled
// Reuse and checks the fault half of the contract: the error arrives typed,
// no goroutine leaks, and the same Reuse runs a correct construction next.
func TestReusePanicRecovery(t *testing.T) {
	leakcheck.Check(t)
	pts := pointgen.UniformBall(pointgen.NewRNG(7), 600, 3)
	ru := NewReuse()
	defer ru.Close()
	if _, err := Par(pts, &Options{Reuse: ru}); err != nil {
		t.Fatalf("warm-up Par: %v", err)
	}
	for _, visit := range []int64{1, 25, 200} {
		inj := faultinject.New(1).PanicAt(faultinject.SiteRidgeStep, visit)
		_, err := Par(pts, &Options{Reuse: ru, Inject: inj})
		var pe *sched.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("visit=%d: error is %T, want *sched.PanicError: %v", visit, err, err)
		}
		got, err := Par(pts, &Options{Reuse: ru})
		if err != nil {
			t.Fatalf("visit=%d: Par after contained panic: %v", visit, err)
		}
		fresh, err := Par(pts, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Vertices, fresh.Vertices) {
			t.Fatalf("visit=%d: post-panic construction differs from fresh", visit)
		}
	}
}

// TestReuseWidthChange exercises the pool-rebuild path: the same Reuse run at
// different Workers widths produces identical output each time.
func TestReuseWidthChange(t *testing.T) {
	leakcheck.Check(t)
	pts := pointgen.UniformBall(pointgen.NewRNG(3), 1500, 3)
	ru := NewReuse()
	defer ru.Close()
	fresh, err := Par(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 4, 2, 4, 1} {
		got, err := Par(pts, &Options{Reuse: ru, Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !reflect.DeepEqual(got.Vertices, fresh.Vertices) {
			t.Fatalf("workers=%d: vertices differ", w)
		}
	}
}

// TestReuseRoundsAllocations pins the steady state of Rounds on a retained
// Reuse and ridge map: once warm, a construction allocates a few dozen
// objects (the round widths, the seed closures, the result's bookkeeping),
// none per round and none per step, as Par on the same state. It runs at
// GOMAXPROCS = 1, like the reuse gate of cmd/hullbench, so that long
// conflict lists do not split into parallel filter pieces. The bound leaves
// room for the race detector, under which sync.Pool drops some of the
// conflict scratch it is handed back.
func TestReuseRoundsAllocations(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	pts := pointgen.UniformBall(pointgen.NewRNG(5), 20000, 3)
	ru := NewReuse()
	defer ru.Close()
	m := conmap.NewShardedMap[*Facet](eng.DefaultMapCapacity(len(pts), 3))
	opt := &Options{Reuse: ru, Map: m, NoCounters: true}
	var rounds int
	build := func() {
		m.Reset()
		r, err := Rounds(pts, opt)
		if err != nil {
			t.Fatal(err)
		}
		rounds = r.Stats.Rounds
	}
	build()
	allocs := testing.AllocsPerRun(3, build)
	t.Logf("warm Rounds: %.0f allocations over %d rounds", allocs, rounds)
	if allocs > 60 {
		t.Fatalf("warm Rounds allocated %.0f objects over %d rounds, want at most 60", allocs, rounds)
	}
}

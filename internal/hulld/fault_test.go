package hulld

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"parhull/internal/conmap"
	eng "parhull/internal/engine"
	"parhull/internal/faultinject"
	"parhull/internal/leakcheck"
	"parhull/internal/pointgen"
	"parhull/internal/sched"
)

// sameFacets asserts two results hold the identical facet multiset — the
// Theorem 5.5 schedule-independence invariant the fault tests lean on.
func sameFacets(t *testing.T, label string, a, b *Result) {
	t.Helper()
	as, bs := a.FacetSet(), b.FacetSet()
	if len(as) != len(bs) {
		t.Fatalf("%s: %d distinct facets vs %d", label, len(as), len(bs))
	}
	for k, c := range as {
		if bs[k] != c {
			t.Fatalf("%s: facet multiplicity differs", label)
		}
	}
}

// TestFaultInjectedPanic schedules a panic at a ridge-step boundary and
// checks the containment contract end to end: the run returns a typed
// *sched.PanicError carrying the injected Panic value (never a crash), the
// pool quiesces, and no goroutine leaks.
func TestFaultInjectedPanic(t *testing.T) {
	leakcheck.Check(t)
	pts := pointgen.UniformBall(pointgen.NewRNG(7), 400, 3)
	for _, visit := range []int64{1, 25, 200} {
		inj := faultinject.New(1).PanicAt(faultinject.SiteRidgeStep, visit)
		_, err := Par(pts, &Options{Inject: inj})
		if err == nil {
			t.Fatalf("visit=%d: injected panic did not surface", visit)
		}
		var pe *sched.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("visit=%d: error is %T, want *sched.PanicError: %v", visit, err, err)
		}
		fp, ok := pe.Value.(faultinject.Panic)
		if !ok || fp.Site != faultinject.SiteRidgeStep || fp.Visit != visit {
			t.Fatalf("visit=%d: contained value = %#v", visit, pe.Value)
		}
		if got := inj.Fired(faultinject.SiteRidgeStep); got != 1 {
			t.Fatalf("visit=%d: fired %d panics, want exactly 1", visit, got)
		}
	}
}

// TestFaultInjectedPanicRounds is the round-synchronous version: the panic
// lands mid-round, ends the round loop, and must still arrive typed.
func TestFaultInjectedPanicRounds(t *testing.T) {
	leakcheck.Check(t)
	pts := pointgen.UniformBall(pointgen.NewRNG(7), 300, 3)
	inj := faultinject.New(1).PanicAt(faultinject.SiteRidgeStep, 40)
	_, err := Rounds(pts, &Options{Inject: inj})
	var pe *sched.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("rounds: error is %T, want *sched.PanicError: %v", err, err)
	}
	if fp, ok := pe.Value.(faultinject.Panic); !ok || fp.Visit != 40 {
		t.Fatalf("rounds: contained value = %#v", pe.Value)
	}
}

// TestFaultDelayEquivalence is the Theorem 5.5 stress: seed-derived delays at
// ridge-step boundaries maximally perturb the steal/fork schedule, yet the
// facet multiset, visibility-test count, and depth profile must equal a clean
// run's exactly.
func TestFaultDelayEquivalence(t *testing.T) {
	leakcheck.Check(t)
	pts := pointgen.OnSphere(pointgen.NewRNG(3), 250, 3)
	clean, err := Par(pts, nil)
	if err != nil {
		t.Fatalf("clean: %v", err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		inj := faultinject.New(seed).DelayEvery(faultinject.SiteRidgeStep, 7, 200*time.Microsecond)
		perturbed, err := Par(pts, &Options{Inject: inj})
		if err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		sameFacets(t, "delayed vs clean", clean, perturbed)
		if clean.Stats.VisibilityTests != perturbed.Stats.VisibilityTests {
			t.Fatalf("seed=%d: vtests %d vs %d", seed,
				clean.Stats.VisibilityTests, perturbed.Stats.VisibilityTests)
		}
		if clean.Stats.MaxDepth != perturbed.Stats.MaxDepth {
			t.Fatalf("seed=%d: depth %d vs %d", seed,
				clean.Stats.MaxDepth, perturbed.Stats.MaxDepth)
		}
		if inj.Visits(faultinject.SiteRidgeStep) == 0 {
			t.Fatalf("seed=%d: injector never visited — hook unplugged?", seed)
		}
	}
}

// TestFaultInjectedCapacity forces a capacity failure in the fixed ridge
// tables mid-run and checks it surfaces as a typed conmap.ErrCapacity (the
// first rung of the degradation ladder), pool quiesced, no goroutine leaked.
func TestFaultInjectedCapacity(t *testing.T) {
	leakcheck.Check(t)
	pts := pointgen.UniformBall(pointgen.NewRNG(9), 300, 3)
	mk := func(inj *faultinject.Injector, tas bool) conmap.RidgeMap[*Facet] {
		if tas {
			return conmap.NewTASMap[*Facet](eng.FixedMapCapacity(len(pts), 3)).Inject(inj)
		}
		return conmap.NewCASMap[*Facet](eng.FixedMapCapacity(len(pts), 3)).Inject(inj)
	}
	for _, tas := range []bool{false, true} {
		inj := faultinject.New(5).FailAt(faultinject.SiteMapInsert, 100)
		_, err := Par(pts, &Options{Map: mk(inj, tas)})
		if !errors.Is(err, conmap.ErrCapacity) {
			t.Fatalf("tas=%v: err = %v, want ErrCapacity", tas, err)
		}
		var pe *sched.PanicError
		if errors.As(err, &pe) {
			t.Fatalf("tas=%v: capacity failure surfaced as a panic: %v", tas, err)
		}
	}
}

// TestFaultRealCapacity drives a genuinely undersized fixed table (no
// injection) and checks the old "table full" panic is now a typed error.
func TestFaultRealCapacity(t *testing.T) {
	leakcheck.Check(t)
	pts := pointgen.OnSphere(pointgen.NewRNG(2), 500, 3) // every point on hull
	for _, tas := range []bool{false, true} {
		var m conmap.RidgeMap[*Facet]
		if tas {
			m = conmap.NewTASMap[*Facet](64)
		} else {
			m = conmap.NewCASMap[*Facet](64)
		}
		_, err := Par(pts, &Options{Map: m})
		if !errors.Is(err, conmap.ErrCapacity) {
			t.Fatalf("tas=%v: err = %v, want ErrCapacity", tas, err)
		}
	}
}

// TestFaultCancellation cancels a construction mid-flight and checks the
// cooperative contract: ctx.Err() comes back (typed, not a panic), the pool
// quiesces, and no goroutine leaks. Injected delays hold chains at ridge
// steps long enough that the run cannot finish before the cancel lands.
func TestFaultCancellation(t *testing.T) {
	leakcheck.Check(t)
	pts := pointgen.OnSphere(pointgen.NewRNG(4), 2000, 3)
	ctx, cancel := context.WithCancel(context.Background())
	inj := faultinject.New(1).DelayEvery(faultinject.SiteRidgeStep, 1, time.Millisecond)
	done := make(chan error, 1)
	go func() {
		_, err := Par(pts, &Options{Ctx: ctx, Inject: inj})
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancellation did not propagate")
	}
}

// TestFaultCancelMidRound cancels Rounds on a retained Reuse while its
// rounds run: ctx.Err() comes back, the pool quiesces with no goroutine
// leaked, and the round left unrun does not survive into the next
// construction — a clean Rounds on the same Reuse creates the facets of a
// fresh run, with the same rounds and widths.
func TestFaultCancelMidRound(t *testing.T) {
	leakcheck.Check(t)
	pts := pointgen.OnSphere(pointgen.NewRNG(4), 2000, 3)
	fresh, err := Rounds(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	ru := NewReuse()
	defer ru.Close()
	ctx, cancel := context.WithCancel(context.Background())
	inj := faultinject.New(1).DelayEvery(faultinject.SiteRidgeStep, 1, time.Millisecond)
	done := make(chan error, 1)
	go func() {
		_, err := Rounds(pts, &Options{Ctx: ctx, Inject: inj, Reuse: ru, Workers: 2})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancellation did not propagate")
	}
	again, err := Rounds(pts, &Options{Reuse: ru, Workers: 2})
	if err != nil {
		t.Fatalf("Rounds after a canceled one: %v", err)
	}
	sameFacets(t, "rounds after a mid-round cancel vs fresh", again, fresh)
	if again.Stats.Rounds != fresh.Stats.Rounds || fmt.Sprint(again.Stats.RoundWidths) != fmt.Sprint(fresh.Stats.RoundWidths) {
		t.Fatalf("rounds after a mid-round cancel: %d %v, fresh %d %v", again.Stats.Rounds,
			again.Stats.RoundWidths, fresh.Stats.Rounds, fresh.Stats.RoundWidths)
	}
}

// TestFaultCancelAtCompletion cancels constructions at seeded moments around
// the time a run takes, so some cancellations land while the run is already
// finishing. Every call must return either a complete hull or
// context.Canceled; under -race the test also checks that a cancellation
// racing the end of the run never writes the run's error concurrently with
// the read that returns it.
func TestFaultCancelAtCompletion(t *testing.T) {
	leakcheck.Check(t)
	pts := pointgen.UniformBall(pointgen.NewRNG(8), 300, 3)
	start := time.Now()
	if _, err := Par(pts, nil); err != nil {
		t.Fatal(err)
	}
	span := time.Since(start)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		delay := time.Duration(rng.Int63n(int64(2*span) + 1))
		timer := time.AfterFunc(delay, cancel)
		var err error
		if i%2 == 0 {
			_, err = Par(pts, &Options{Ctx: ctx})
		} else {
			_, err = Rounds(pts, &Options{Ctx: ctx})
		}
		timer.Stop()
		cancel()
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("run %d: err = %v, want nil or context.Canceled", i, err)
		}
	}
}

// TestFaultCancelBeforeStart checks the upfront path: an already-canceled
// context returns immediately on every engine without spinning up a pool.
func TestFaultCancelBeforeStart(t *testing.T) {
	leakcheck.Check(t)
	pts := pointgen.UniformBall(pointgen.NewRNG(6), 100, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Par(pts, &Options{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Par: err = %v, want context.Canceled", err)
	}
	if _, err := Rounds(pts, &Options{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Rounds: err = %v, want context.Canceled", err)
	}
	if _, err := Seq(pts, &Options{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Seq: err = %v, want context.Canceled", err)
	}
}

// TestFaultSeqCancelMidRun cancels the sequential engine partway: the
// per-insertion check must stop the loop with ctx.Err().
func TestFaultSeqCancelMidRun(t *testing.T) {
	leakcheck.Check(t)
	pts := pointgen.UniformBall(pointgen.NewRNG(8), 5000, 3)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	_, err := Seq(pts, &Options{Ctx: ctx})
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want nil (finished first) or context.Canceled", err)
	}
}

// TestFaultRecoveryRerunIdentical pins graceful degradation end to end: a
// run killed by an injected panic leaves nothing behind that affects a
// subsequent clean run on the same inputs (fresh state per construction), so
// retrying after containment yields the exact clean facet multiset.
func TestFaultRecoveryRerunIdentical(t *testing.T) {
	leakcheck.Check(t)
	pts := pointgen.UniformBall(pointgen.NewRNG(11), 350, 3)
	clean, err := Par(pts, nil)
	if err != nil {
		t.Fatalf("clean: %v", err)
	}
	inj := faultinject.New(2).PanicAt(faultinject.SiteRidgeStep, 60)
	if _, err := Par(pts, &Options{Inject: inj}); err == nil {
		t.Fatal("injected panic did not surface")
	}
	retry, err := Par(pts, nil)
	if err != nil {
		t.Fatalf("retry: %v", err)
	}
	sameFacets(t, "retry after contained panic vs clean", clean, retry)
}

package sched

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"parhull/internal/leakcheck"
)

// TestExecutorLeakNormalExit pins the baseline: a pool that runs its tasks
// to completion leaves no goroutine behind after Wait.
func TestExecutorLeakNormalExit(t *testing.T) {
	leakcheck.Check(t)
	var ran atomic.Int64
	var x *Executor[int]
	x = NewExecutor(4, func(w, task int) {
		ran.Add(1)
		if task > 0 {
			x.Fork(w, task-1)
		}
	})
	for i := 0; i < 32; i++ {
		x.Fork(External, 8)
	}
	x.Wait()
	if got, want := ran.Load(), int64(32*9); got != want {
		t.Fatalf("ran %d tasks, want %d", got, want)
	}
	if x.Err() != nil {
		t.Fatalf("clean run reported error: %v", x.Err())
	}
}

// TestExecutorPanicContainment pins the tentpole contract: a panicking task
// neither crashes the process nor deadlocks Wait; the pool drains, the first
// panic surfaces as a typed *PanicError with worker id, task rendering, and
// stack, and no goroutine leaks.
func TestExecutorPanicContainment(t *testing.T) {
	leakcheck.Check(t)
	var ran atomic.Int64
	var x *Executor[int]
	x = NewExecutor(4, func(w, task int) {
		if task == 13 {
			panic("boom at 13")
		}
		ran.Add(1)
		if task > 0 {
			x.Fork(w, task-1)
		}
	})
	for i := 0; i < 8; i++ {
		x.Fork(External, 20) // every chain walks through 13 unless drained first
	}
	x.Wait() // must return: every pending count is retired even on panic paths

	err := x.Err()
	if err == nil {
		t.Fatal("panic was not reported")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error is %T, want *PanicError", err)
	}
	if pe.Value != "boom at 13" {
		t.Errorf("panic value = %v, want boom at 13", pe.Value)
	}
	if pe.Worker < 0 || pe.Worker >= 4 {
		t.Errorf("worker id = %d, want 0..3", pe.Worker)
	}
	if pe.Task != "13" {
		t.Errorf("task rendering = %q, want \"13\"", pe.Task)
	}
	if len(pe.Stack) == 0 || !strings.Contains(err.Error(), "boom at 13") {
		t.Errorf("error lost the stack or the value: %v", err)
	}
	if !x.Failed() {
		t.Error("Failed() = false after contained panic")
	}
}

// TestExecutorDrainsAfterPanic checks graceful degradation, not just
// survival: after the first panic the pool stops running queued tasks (they
// are retired unrun) rather than plowing through a poisoned workload. A
// single worker is held inside the panicking task while the queue is loaded,
// so every queued task is deterministically behind the failure.
func TestExecutorDrainsAfterPanic(t *testing.T) {
	leakcheck.Check(t)
	started := make(chan struct{})
	release := make(chan struct{})
	var ran atomic.Int64
	x := NewExecutor(1, func(w, task int) {
		if task < 0 {
			close(started)
			<-release
			panic("boom")
		}
		ran.Add(1)
	})
	x.Fork(External, -1)
	<-started // the only worker is now inside the panicking task
	for i := 0; i < 64; i++ {
		x.Fork(External, i)
	}
	close(release)
	x.Wait()
	if x.Err() == nil {
		t.Fatal("panic was not reported")
	}
	if ran.Load() != 0 {
		t.Errorf("%d queued tasks ran after the panic — drain let work through", ran.Load())
	}
}

// TestExecutorFirstPanicWins submits many panicking tasks and checks exactly
// one is retained and the rest are contained silently.
func TestExecutorFirstPanicWins(t *testing.T) {
	leakcheck.Check(t)
	x := NewExecutor(8, func(w, task int) { panic(task) })
	for i := 0; i < 100; i++ {
		x.Fork(External, i)
	}
	x.Wait()
	var pe *PanicError
	if !errors.As(x.Err(), &pe) {
		t.Fatalf("error is %T, want *PanicError", x.Err())
	}
	if _, ok := pe.Value.(int); !ok {
		t.Errorf("panic value = %v (%T), want an int task id", pe.Value, pe.Value)
	}
}

// TestParallelForPanicTransparent checks ParallelFor's contract: a panic in
// one chunk stops siblings from claiming new chunks, all bodies return, and
// the first panic re-throws on the caller as a *PanicError.
func TestParallelForPanicTransparent(t *testing.T) {
	leakcheck.Check(t)
	err := Recovered(func() {
		ParallelFor(10000, 1, func(lo, hi int) {
			if lo <= 5000 && 5000 < hi {
				panic("chunk boom")
			}
		})
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "chunk boom" {
		t.Fatalf("ParallelFor panic not contained: %v", err)
	}
}

// TestPanicErrorPassThrough pins the cross-layer invariant: a *PanicError
// crossing a second containment layer (ParallelFor inside an Executor task)
// is passed through, keeping the innermost capture, not re-wrapped.
func TestPanicErrorPassThrough(t *testing.T) {
	leakcheck.Check(t)
	x := NewExecutor[int](2, func(w, task int) {
		ParallelFor(100, 1, func(lo, hi int) {
			if lo == 0 {
				panic("inner")
			}
		})
	})
	x.Fork(External, 0)
	x.Wait()
	var pe *PanicError
	if !errors.As(x.Err(), &pe) {
		t.Fatalf("error is %T, want *PanicError", x.Err())
	}
	if pe.Value != "inner" {
		t.Errorf("outer layer re-wrapped the panic: value = %v", pe.Value)
	}
}

// TestRecoveredNil checks the no-panic path returns nil.
func TestRecoveredNil(t *testing.T) {
	if err := Recovered(func() {}); err != nil {
		t.Fatalf("Recovered of clean fn = %v", err)
	}
}

// TestAsError checks the exported conversion used by the public guards.
func TestAsError(t *testing.T) {
	err := AsError("caught")
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "caught" || pe.Worker != -1 {
		t.Fatalf("AsError = %#v", err)
	}
}

// TestFaultRoundsPanic checks the round loop's containment: a panic in
// round k ends the loop after that round and surfaces from Err as the typed
// *PanicError — the Restart that would arm round k+1 never runs, so it
// cannot clear the failure — with the pool quiesced, no goroutine leaked,
// and the pool usable again after the owner's own Restart.
func TestFaultRoundsPanic(t *testing.T) {
	leakcheck.Check(t)
	var armed atomic.Bool
	var ran atomic.Int64
	var x *Executor[int]
	x = NewExecutor(4, func(w, task int) {
		ran.Add(1)
		if task == 3 && armed.Load() {
			panic("boom in round 4")
		}
		if task < 5 {
			x.Fork(w, task+1)
		}
	})
	defer x.Close()
	initial := make([]int, 64)
	armed.Store(true)
	widths := x.Rounds(initial, func(int) bool { return true })
	if len(widths) != 4 {
		t.Fatalf("loop ran %d rounds past the panic in round 4", len(widths))
	}
	var pe *PanicError
	if !errors.As(x.Err(), &pe) || pe.Value != "boom in round 4" {
		t.Fatalf("round panic not reported as *PanicError: %v", x.Err())
	}
	armed.Store(false)
	ran.Store(0)
	x.Restart()
	if widths := x.Rounds(initial, func(int) bool { return true }); len(widths) != 6 || x.Err() != nil || ran.Load() != 6*64 {
		t.Fatalf("pool after a contained round panic: widths %v, err %v, %d ran", widths, x.Err(), ran.Load())
	}
}

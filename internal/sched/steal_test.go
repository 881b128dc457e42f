package sched

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestExecutorRunsAll checks that every forked task runs exactly once,
// including tasks forked by tasks (nested ternary fan-out).
func TestExecutorRunsAll(t *testing.T) {
	type job struct{ depth int }
	var count atomic.Int64
	var x *Executor[job]
	x = NewExecutor(4, func(w int, j job) {
		count.Add(1)
		if j.depth < 3 {
			for i := 0; i < 3; i++ {
				x.Fork(w, job{j.depth + 1})
			}
		}
	})
	for i := 0; i < 5; i++ {
		x.Fork(External, job{0})
	}
	x.Wait()
	// 5 roots, each a ternary tree of depth 3: 5 * (1+3+9+27) = 200.
	if got := count.Load(); got != 200 {
		t.Fatalf("ran %d tasks, want 200", got)
	}
}

// TestExecutorEmpty checks that Wait returns when nothing was forked.
func TestExecutorEmpty(t *testing.T) {
	x := NewExecutor(2, func(w int, _ struct{}) {})
	x.Wait()
}

// TestExecutorWorkerIDs checks that every task sees a worker id in range
// and that ids are stable enough to index per-worker state: concurrent
// increments of a plain (non-atomic) per-worker counter must not race,
// which the -race run of this test enforces.
func TestExecutorWorkerIDs(t *testing.T) {
	const workers = 4
	counts := make([]int64, workers*64) // spaced to avoid false sharing noise
	var bad atomic.Int64
	var x *Executor[int]
	x = NewExecutor(workers, func(w int, depth int) {
		if w < 0 || w >= workers {
			bad.Add(1)
			return
		}
		counts[w*64]++ // safe only if ids partition the tasks
		if depth > 0 {
			x.Fork(w, depth-1)
			x.Fork(w, depth-1)
		}
	})
	x.Fork(External, 10)
	x.Wait()
	if bad.Load() != 0 {
		t.Fatalf("%d tasks saw an out-of-range worker id", bad.Load())
	}
	total := int64(0)
	for w := 0; w < workers; w++ {
		total += counts[w*64]
	}
	if total != 2047 { // 2^11 - 1 nodes of the binary fork tree
		t.Fatalf("ran %d tasks, want 2047", total)
	}
}

// TestExecutorBoundsGoroutines pins the goroutine bound: the pool
// runs exactly `workers` goroutines regardless of how many tasks are forked
// or how deeply forks nest. A chain of 50k dependent forks on a 2-worker
// pool must complete without the goroutine count growing with chain length.
func TestExecutorBoundsGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	const workers = 2
	const depth = 50000
	var ran atomic.Int64
	var maxG atomic.Int64
	var x *Executor[int]
	x = NewExecutor(workers, func(w int, d int) {
		ran.Add(1)
		if n := int64(runtime.NumGoroutine()); n > maxG.Load() {
			maxG.Store(n)
		}
		if d > 0 {
			x.Fork(w, d-1)
		}
	})
	x.Fork(External, depth)
	x.Wait()
	if got := ran.Load(); got != depth+1 {
		t.Fatalf("ran %d forks, want %d", got, depth+1)
	}
	if high := maxG.Load(); high > int64(base+workers+3) {
		t.Fatalf("goroutine high-water %d over base %d with %d workers", high, base, workers)
	}
	// After Wait the pool's goroutines are gone.
	if now := runtime.NumGoroutine(); now > base+3 {
		t.Fatalf("goroutines leaked: %d after Wait, base %d", now, base)
	}
}

// TestExecutorStealSkew stresses the steal path under deliberate skew: a
// single producer task forks every chain onto its own deque, so the other
// workers make progress only by stealing. Run under -race this exercises
// the pop/steal interleavings on a shared deque; chains then fork their
// continuations onto whichever deque they landed on, mixing owner pops
// with concurrent steals throughout.
func TestExecutorStealSkew(t *testing.T) {
	const workers = 4
	const chains = 64
	const length = 200
	type job struct{ remaining int }
	var ran atomic.Int64
	var x *Executor[job]
	x = NewExecutor(workers, func(w int, j job) {
		ran.Add(1)
		switch {
		case j.remaining > length:
			// Producer: fan every chain out onto this worker's own deque.
			for i := 0; i < chains; i++ {
				x.Fork(w, job{length})
			}
		case j.remaining > 0:
			x.Fork(w, job{j.remaining - 1})
		}
	})
	x.Fork(External, job{length + 1})
	x.Wait()
	want := int64(1 + chains*(length+1))
	if got := ran.Load(); got != want {
		t.Fatalf("ran %d tasks, want %d", got, want)
	}
}

// Package sched provides the parallel execution substrate the hull engines
// run on. It stands in for the machine models of the paper: a work-stealing
// executor emulates the binary-forking model of Theorem 5.5 (Executor), and
// a round-synchronous frontier executor emulates the CRCW PRAM execution of
// Theorem 5.4 (RunRounds), making the number of rounds — the recursion
// depth of Theorem 5.3 — directly observable.
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers returns the parallelism level used by this package: GOMAXPROCS.
func Workers() int { return runtime.GOMAXPROCS(0) }

// ParallelFor calls fn over disjoint subranges covering [0, n), in parallel.
// grain is the minimum chunk size (a value <= 0 selects a default). Chunks
// are handed out dynamically so irregular iterations load-balance.
//
// ParallelFor is panic-transparent: a panic in a chunk goroutine does not
// kill the process — the first one is captured (as a *PanicError), the
// remaining chunks are abandoned, and the panic is re-thrown on the calling
// goroutine after all bodies have returned, where the caller's containment
// layer (an Executor worker or a Recovered shim) turns it into a typed
// error.
func ParallelFor(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := Workers()
	if grain <= 0 {
		grain = 1 + n/(8*w)
	}
	if w == 1 || n <= grain {
		fn(0, n)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var fault atomic.Pointer[PanicError]
	body := func() {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				fault.CompareAndSwap(nil, asPanicError(-1, "", r))
			}
		}()
		for {
			if fault.Load() != nil {
				return // a sibling chunk panicked; stop starting new work
			}
			lo := int(next.Add(int64(grain))) - grain
			if lo >= n {
				return
			}
			hi := lo + grain
			if hi > n {
				hi = n
			}
			fn(lo, hi)
		}
	}
	nw := w
	if maxChunks := (n + grain - 1) / grain; nw > maxChunks {
		nw = maxChunks
	}
	wg.Add(nw)
	for i := 0; i < nw; i++ {
		go body()
	}
	wg.Wait()
	if pe := fault.Load(); pe != nil {
		panic(pe)
	}
}

// RunRounds executes a frontier computation round-synchronously: every task
// in the current frontier runs (in parallel) exactly once per round, emitting
// tasks for the next round; a global barrier separates rounds. It returns
// the number of rounds executed. This mirrors the PRAM schedule in the proof
// of Theorem 5.4, so the return value is the empirical recursion depth of
// Algorithm 3 (Theorem 5.3).
func RunRounds[T any](initial []T, step func(task T, emitNext func(T))) int {
	rounds, _ := RunRoundsWidths(initial, step)
	return rounds
}

// RunRoundsWidths is RunRounds additionally reporting the frontier size of
// every round — the number of ProcessRidge calls that could run in parallel.
// The widths quantify the available parallelism (work/span) that Theorems
// 5.4/5.5 promise: total tasks spread over O(log n) rounds.
func RunRoundsWidths[T any](initial []T, step func(task T, emitNext func(T))) (int, []int) {
	frontier := initial
	rounds := 0
	var widths []int
	for len(frontier) > 0 {
		rounds++
		widths = append(widths, len(frontier))
		frontier = collectParallel(frontier, step)
	}
	return rounds, widths
}

// collectParallel runs step on every task, gathering emitted tasks into a
// per-task slot and concatenating the slots after the barrier. No shared
// mutex is involved — the seed version funneled every chunk's output through
// one global lock, serializing the wide early rounds — and the concatenation
// order is deterministic (task index), so the next frontier's order does not
// depend on chunk timing.
func collectParallel[T any](tasks []T, step func(task T, emitNext func(T))) []T {
	parts := make([][]T, len(tasks))
	ParallelFor(len(tasks), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			var local []T
			step(tasks[i], func(t T) { local = append(local, t) })
			parts[i] = local
		}
	})
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n == 0 {
		return nil
	}
	out := make([]T, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

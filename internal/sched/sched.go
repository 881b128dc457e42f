// Package sched provides the parallel execution substrate the hull engines
// run on. It stands in for the machine models of the paper with one pool of
// workers: the work-stealing Executor emulates the binary-forking model of
// Theorem 5.5 (Fork, Quiesce), and its round loop emulates the CRCW PRAM
// execution of Theorem 5.4 (Executor.Rounds), making the number of rounds —
// the recursion depth of Theorem 5.3 — directly observable. ParallelFor
// splits one loop into chunks (the conflict filter's long lists, the
// pre-hull's scans).
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

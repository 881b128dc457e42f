package sched

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// External is the worker id to pass to Executor.Fork from outside the pool
// (root tasks submitted before Wait). External forks are spread round-robin
// across the deques.
const External = -1

// Executor is a work-stealing fork-join pool: a fixed set of long-lived
// worker goroutines, each owning a LIFO deque of pending tasks. A worker
// pushes its forks onto its own deque and pops from the same end (depth-
// first, cache-warm, the order a serial execution would use); a worker whose
// deque is empty steals from the opposite end of a sibling's deque (oldest
// task, most likely to fan out); a worker that finds nothing parks until new
// work arrives. This is the Fork of the binary-forking model (Theorem 5.5)
// run on the scheduler that model assumes (Blumofe-Leiserson work
// stealing): no goroutine spawn per forked ridge chain, and — because the
// pool is fixed — every task learns a stable worker id it can use to index
// per-worker state (the engines' arenas).
//
// The task type T is a value, not a closure: forks carry plain task structs
// through the deques, so the steady-state fork path performs no allocation
// (deque slabs amortize). The run callback receives the executing worker's
// id alongside the task — this is how spawned chains learn their worker.
//
// An Executor runs one or more cycles on the same worker pool. The simple
// one-shot shape is NewExecutor / Fork / Wait (quiesce + stop the workers).
// A long-lived owner instead calls Quiesce at the end of each cycle — the
// workers park but stay alive — then Restart to arm the next cycle before
// forking again, and Close once to retire the pool. Fork must not be called
// between entering Quiesce/Wait and the following Restart. Writes made by
// the owner between cycles are visible to the workers of the next cycle:
// every task is handed over through a deque mutex, and Quiesce returns only
// after every run call of the cycle has returned. A cycle can instead be a
// run of Rounds, the round-synchronous schedule on the same workers.
//
// Panics are contained, never propagated: a panic in run is converted to a
// *PanicError carrying the worker id, the task, and the stack; the first one
// is retained for Err, and every still-queued task is drained without
// running so Wait returns promptly with the pool quiesced and no goroutine
// leaked.
type Executor[T any] struct {
	run    func(worker int, task T)
	deques []deque[T]

	failed  atomic.Bool
	errOnce sync.Once
	err     error

	// pending counts unfinished tasks plus one submission token held by the
	// constructor and released by Wait, so the count cannot touch zero while
	// roots are still being forked. The unique 1 -> 0 step of a cycle sends
	// one token on done, which Quiesce receives: one channel, made once,
	// serves every cycle and every round.
	pending atomic.Int64
	done    chan struct{}

	// deferring is set while Rounds runs: a worker's Fork then readies its
	// task for the next round instead of this one. front holds the frontier
	// Rounds gathers between rounds; it is grow-only, like the next-round
	// buffers of the deques.
	deferring bool
	front     []T

	// idlers is read on every fork: only when a worker is parked does Fork
	// take the wake lock. In the facet-creation steady state every worker is
	// busy and a fork is a deque push plus two uncontended atomics.
	idlers atomic.Int32
	rr     atomic.Uint32 // round-robin target for external forks

	mu      sync.Mutex
	wake    sync.Cond
	seq     uint64 // bumped under mu by every wake, guards against lost signals
	stopped bool
	wg      sync.WaitGroup
}

// deque is one worker's task queue: owner pushes and pops at the tail
// (LIFO), thieves take from the head (FIFO). A plain mutex suffices — the
// owner's push/pop touch an uncontended lock in the steady state, and steals
// are rare by construction (they only happen when a deque runs dry). next
// is the worker's next-round buffer under Rounds, touched without the lock:
// by its worker during a round, by the owner between rounds.
type deque[T any] struct {
	mu   sync.Mutex
	head int
	buf  []T
	next []T
	// Pad so neighboring deques do not false-share a cache line.
	_ [64]byte
}

func (d *deque[T]) push(t T) {
	d.mu.Lock()
	d.buf = append(d.buf, t)
	d.mu.Unlock()
}

// pop takes the newest task (owner side). Slots are zeroed on removal so
// the deque does not retain dead facets, and the buffer resets when drained.
func (d *deque[T]) pop() (T, bool) {
	var zero T
	d.mu.Lock()
	if d.head == len(d.buf) {
		d.head = 0
		d.buf = d.buf[:0]
		d.mu.Unlock()
		return zero, false
	}
	t := d.buf[len(d.buf)-1]
	d.buf[len(d.buf)-1] = zero
	d.buf = d.buf[:len(d.buf)-1]
	d.mu.Unlock()
	return t, true
}

// steal takes the oldest task (thief side).
func (d *deque[T]) steal() (T, bool) {
	var zero T
	d.mu.Lock()
	if d.head == len(d.buf) {
		d.mu.Unlock()
		return zero, false
	}
	t := d.buf[d.head]
	d.buf[d.head] = zero
	d.head++
	d.mu.Unlock()
	return t, true
}

// NewExecutor starts a pool of workers goroutines (workers <= 0 selects
// GOMAXPROCS) executing run(worker, task) for every forked task. Exactly
// workers goroutines exist for the lifetime of the pool, regardless of how
// many tasks are forked or how deeply forks nest — the goroutine-bound
// contract TestExecutorBoundsGoroutines pins.
func NewExecutor[T any](workers int, run func(worker int, task T)) *Executor[T] {
	if workers <= 0 {
		workers = Workers()
	}
	x := &Executor[T]{
		run:    run,
		deques: make([]deque[T], workers),
		done:   make(chan struct{}, 1),
	}
	x.wake.L = &x.mu
	x.pending.Store(1) // the submission token; Wait releases it
	x.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go x.worker(i)
	}
	return x
}

// Fork enqueues a task. from is the worker id of the calling task (so the
// fork lands on the caller's own deque, preserving the LIFO depth-first
// order of the binary-forking model) or External from outside the pool.
// Inside Rounds a worker's fork runs in the next round instead: it lands in
// the worker's next-round buffer, and External forks are not allowed.
func (x *Executor[T]) Fork(from int, task T) {
	if x.deferring {
		d := &x.deques[from]
		d.next = append(d.next, task)
		return
	}
	x.pending.Add(1)
	w := from
	if w < 0 || w >= len(x.deques) {
		w = int(x.rr.Add(1)-1) % len(x.deques)
	}
	x.deques[w].push(task)
	x.wakeIdlers()
}

// wakeIdlers wakes the parked workers, if any, after new work was pushed.
func (x *Executor[T]) wakeIdlers() {
	if x.idlers.Load() > 0 {
		x.mu.Lock()
		x.seq++
		x.wake.Broadcast()
		x.mu.Unlock()
	}
}

// Rounds runs a frontier computation round-synchronously on the pool — the
// PRAM schedule of Theorem 5.4, on the same workers, deques and worker ids
// as a fork-join cycle. Each round spreads the frontier over the deques and
// waits for the pool to quiesce. A task that calls Fork during a round
// readies that task for the next round: it lands in the forking worker's
// own next-round buffer. Between rounds the owner gathers those buffers
// into the next frontier and re-arms the pool. The buffers and the gathered
// frontier are retained across rounds and cycles, so once they have grown a
// round allocates nothing.
//
// begin is called on the owner goroutine before each round, with the
// round's 1-based number and no task running; the loop stops when it
// returns false, when a round readies no task, or after a round in which a
// task panicked (so no Restart clears that panic: Err reports it). The
// result holds the frontier size of every round run; its length is the
// round count, the recursion depth of Theorem 5.3 when every task is one
// step of Algorithm 3.
//
// Rounds takes the place of a fork-join cycle: call it after NewExecutor or
// Restart, with nothing forked. It returns with the pool quiesced, as
// Quiesce does.
func (x *Executor[T]) Rounds(frontier []T, begin func(round int) bool) (widths []int) {
	x.deferring = true
	widths = make([]int, 0, 64) // O(log n) rounds: one allocation, as a rule
	for len(frontier) > 0 && begin(len(widths)+1) {
		if len(widths) > 0 {
			x.Restart()
		}
		widths = append(widths, len(frontier))
		x.spread(frontier)
		x.Quiesce()
		frontier = x.gather()
		if x.err != nil {
			break
		}
	}
	if len(widths) == 0 {
		x.Quiesce()
	}
	x.deferring = false
	clear(x.front) // a frontier left unrun holds no task past the call
	x.front = x.front[:0]
	return widths
}

// spread forks one round's frontier: a contiguous share onto every deque,
// one lock per deque, then one wake for the parked workers. The pool is
// quiescent, so every deque is empty and its buffer restarts at the front,
// wherever the last steal left its head.
func (x *Executor[T]) spread(tasks []T) {
	x.pending.Add(int64(len(tasks)))
	n := len(x.deques)
	for i := range x.deques {
		d := &x.deques[i]
		d.mu.Lock()
		d.head = 0
		d.buf = append(d.buf[:0], tasks[i*len(tasks)/n:(i+1)*len(tasks)/n]...)
		d.mu.Unlock()
	}
	x.wakeIdlers()
}

// gather moves the tasks readied during the round just quiesced into the
// next frontier, emptying every next-round buffer.
func (x *Executor[T]) gather() []T {
	x.front = x.front[:0]
	for i := range x.deques {
		d := &x.deques[i]
		x.front = append(x.front, d.next...)
		clear(d.next)
		d.next = d.next[:0]
	}
	return x.front
}

// Wait blocks until every forked task (including tasks forked by tasks) has
// completed, then stops the workers and returns — the one-shot shape,
// equivalent to Quiesce followed by Close.
func (x *Executor[T]) Wait() {
	x.Quiesce()
	x.Close()
}

// Quiesce blocks until every forked task of the current cycle has completed.
// The workers stay alive and parked, ready for Restart; no run call is in
// flight once Quiesce returns (each task's completion is retired only after
// its run returns).
func (x *Executor[T]) Quiesce() {
	x.release() // drop the submission token
	<-x.done
}

// Restart arms the next cycle after a Quiesce: a fresh submission token and
// cleared failure state (a cycle that contained a panic does not poison the
// next one). It allocates nothing: the quiescence gate is the same channel
// every cycle, drained by the Quiesce before. Only the owner may call it,
// and only between Quiesce and the next cycle's first Fork. No worker
// touches the reset fields while parked — pending is reached only through
// exec, and no task exists between cycles — so the plain writes are safe;
// they become visible to workers through the deque mutex of the next Fork.
func (x *Executor[T]) Restart() {
	x.pending.Store(1)
	x.failed.Store(false)
	x.err = nil
	x.errOnce = sync.Once{}
}

// Close stops the workers and joins them. Call after Quiesce or Rounds (or
// let Wait do both). Idempotent.
func (x *Executor[T]) Close() {
	x.mu.Lock()
	x.stopped = true
	x.wake.Broadcast()
	x.mu.Unlock()
	x.wg.Wait()
}

// release retires one pending count; the unique transition to zero of a
// cycle passes the quiescence gate its one token (the buffered send never
// blocks: Quiesce drains the token before the next cycle can produce one).
func (x *Executor[T]) release() {
	if x.pending.Add(-1) == 0 {
		x.done <- struct{}{}
	}
}

// fail records the first contained panic and flips the drain flag.
func (x *Executor[T]) fail(pe *PanicError) {
	x.errOnce.Do(func() { x.err = pe })
	x.failed.Store(true)
}

// Failed cheaply reports whether a panic has been contained; the engines'
// chain loops poll it to stop mid-chain while the pool drains.
func (x *Executor[T]) Failed() bool { return x.failed.Load() }

// Err returns the first contained panic as a *PanicError, or nil. Call
// after Wait.
func (x *Executor[T]) Err() error { return x.err }

// exec runs one task with panic containment; release happens on every path,
// so the quiescence count cannot be lost to a panic (a lost release would
// deadlock Wait).
func (x *Executor[T]) exec(id int, t T) {
	defer x.release()
	defer func() {
		if r := recover(); r != nil {
			x.fail(asPanicError(id, fmt.Sprint(t), r))
		}
	}()
	x.run(id, t)
}

func (x *Executor[T]) worker(id int) {
	defer x.wg.Done()
	for {
		t, ok := x.find(id)
		if !ok {
			t, ok = x.park(id)
			if !ok {
				return
			}
		}
		if x.failed.Load() {
			x.release() // drain: retire the task without running it
			continue
		}
		x.exec(id, t)
	}
}

// find pops the worker's own deque, then tries to steal from each sibling
// in turn (starting just past its own index so thieves spread out).
func (x *Executor[T]) find(id int) (T, bool) {
	if t, ok := x.deques[id].pop(); ok {
		return t, true
	}
	n := len(x.deques)
	for k := 1; k < n; k++ {
		if t, ok := x.deques[(id+k)%n].steal(); ok {
			return t, true
		}
	}
	var zero T
	return zero, false
}

// park blocks until a task is available (returned) or the pool stops
// (ok=false). The idlers counter is raised before the final rescan, so a
// concurrent Fork either makes its push visible to that rescan or sees
// idlers > 0 and bumps seq under the lock — a lost wakeup is impossible.
func (x *Executor[T]) park(id int) (T, bool) {
	var zero T
	x.idlers.Add(1)
	defer x.idlers.Add(-1)
	for {
		x.mu.Lock()
		seq := x.seq
		stopped := x.stopped
		x.mu.Unlock()
		if stopped {
			return zero, false
		}
		if t, ok := x.find(id); ok {
			return t, true
		}
		x.mu.Lock()
		for x.seq == seq && !x.stopped {
			x.wake.Wait()
		}
		x.mu.Unlock()
	}
}

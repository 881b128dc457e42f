package engine

import "parhull/internal/sched"

// Pool is the retained parallel substrate of a reusable construction owner
// (the public parhull.Builder): the work-stealing worker pool, the
// per-worker arenas and fresh-ridge scratch of the steal schedule, and the
// shared arena pool the rounds schedule draws from. A Pool amortizes
// across constructions everything parSteal builds per call — worker
// goroutines, deques, arenas, fork closures — so the steady-state cost of a
// parallel construction is the work itself, not the scaffolding.
//
// A Pool is single-owner: at most one construction may run on it at a time,
// and Reset/Close must not overlap a construction. The zero value is not
// ready; use NewPool.
type Pool[FV any, R any] struct {
	workers   int
	arenas    []Arena[FV]
	ridgeBufs [][]R
	forkFns   []func(Task[FV, R])
	x         *sched.Executor[Task[FV, R]]

	// cur is the construction currently mounted on the pool. The worker run
	// closure is bound once (to the pool, not to a driver) and reads cur per
	// task; the write in runSteal is published to workers through the deque
	// mutex of the first Fork.
	cur *driver[FV, R]

	// chain hands arenas to the barriered steps of the rounds schedule (see
	// ArenaPool); retained here so a pooled owner can Reset them between
	// cycles.
	chain ArenaPool[FV]
}

// NewPool returns an empty Pool; the worker pool and arenas are created
// lazily on the first steal-schedule construction.
func NewPool[FV any, R any]() *Pool[FV, R] { return &Pool[FV, R]{} }

// ensure (re)builds the executor for the requested width. Reusing the pool at
// the same width re-arms the parked workers; a width change retires the old
// pool and starts a new one (arenas and scratch are per-worker, so they are
// rebuilt with it).
func (p *Pool[FV, R]) ensure(workers int) {
	nw := workers
	if nw <= 0 {
		nw = sched.Workers()
	}
	if p.x != nil {
		if nw == p.workers {
			p.x.Restart()
			return
		}
		p.x.Close()
	}
	p.workers = nw
	p.arenas = NewArenas[FV](nw)
	p.ridgeBufs = make([][]R, nw)
	p.forkFns = make([]func(Task[FV, R]), nw)
	p.x = sched.NewExecutor(nw, func(w int, tk Task[FV, R]) {
		d, x := p.cur, p.x
		a, fork := &p.arenas[w], p.forkFns[w]
		for {
			if d.failed.Load() || x.Failed() {
				return
			}
			next, buf, ok := d.step(a, tk, p.ridgeBufs[w], 0, fork)
			p.ridgeBufs[w] = buf
			if !ok {
				return
			}
			tk = next
		}
	})
	for w := range p.forkFns {
		w := w
		p.forkFns[w] = func(nt Task[FV, R]) { p.x.Fork(w, nt) }
	}
}

// runSteal is parSteal on the retained substrate: mount the driver, arm the
// workers, seed the root tasks, and quiesce — the workers park but stay
// alive for the next construction.
func (p *Pool[FV, R]) runSteal(d *driver[FV, R], workers int, seed func(fork func(Task[FV, R]))) error {
	p.cur = d
	p.ensure(workers)
	seed(func(tk Task[FV, R]) { p.x.Fork(sched.External, tk) })
	p.x.Quiesce()
	p.cur = nil
	return p.x.Err()
}

// Reset rewinds every retained arena for the next construction. Call only
// between constructions, after the previous Result is no longer in use —
// pooled facets and slices are recycled in place.
func (p *Pool[FV, R]) Reset() {
	for i := range p.arenas {
		p.arenas[i].Reset()
	}
	p.chain.Reset()
}

// Close retires the worker pool. The Pool must not be used afterwards;
// arenas (and any Result carved from them) remain valid.
func (p *Pool[FV, R]) Close() {
	if p.x != nil {
		p.x.Close()
		p.x = nil
	}
}

// chainArenas returns the arena pool rounds steps should draw from:
// the retained one of a pooled construction, or a construction-local pool.
func chainArenas[FV any, R any](p *Pool[FV, R]) *ArenaPool[FV] {
	if p != nil {
		return &p.chain
	}
	return new(ArenaPool[FV])
}

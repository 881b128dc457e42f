package engine

import "parhull/internal/sched"

// Pool is the parallel substrate of Par and Rounds: the work-stealing
// executor, one arena and one fresh-ridge buffer per worker, and the
// per-worker fork closures. The scaffold (Reuse) owns one: the public
// parhull.Builder retains it across constructions, so the steady-state cost
// of a parallel construction is the work itself, not the scaffolding, and a
// one-shot construction runs on a fresh Reuse that it closes on return.
//
// A Pool is single-owner: at most one construction may run on it at a time,
// and Reset/Close must not overlap a construction. The zero value is ready:
// the workers and arenas are created by the first construction.
type Pool[FV any, R any] struct {
	workers   int
	arenas    []Arena[FV]
	ridgeBufs [][]R
	forkFns   []func(Task[FV, R])
	x         *sched.Executor[Task[FV, R]]

	// seeds is the first round's frontier under Rounds, grow-only.
	seeds []Task[FV, R]

	// cur is the construction currently mounted on the pool. The worker run
	// closure is bound once (to the pool, not to a driver) and reads cur per
	// task; the write in run is published to workers through the deque
	// mutex of the first fork.
	cur *driver[FV, R]
}

// ensure (re)builds the executor for the requested width. Reusing the pool at
// the same width re-arms the parked workers; a width change retires the old
// pool and starts a new one (arenas and scratch are per-worker, so they are
// rebuilt with it).
//
// A worker runs each task on its own arena with its own fork closure. Under
// Par a task loops its chain to the end; under Rounds (cur.round > 0) it
// runs one step, and forks its continuation, which the executor defers to
// the next round like every fork of the round.
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
		for !d.failed.Load() && !x.Failed() {
			next, buf, ok := d.step(a, tk, p.ridgeBufs[w], fork)
			p.ridgeBufs[w] = buf
			if !ok {
				return
			}
			if d.round > 0 {
				fork(next)
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

// run mounts d, arms the workers and runs one construction: the seed tasks
// are forked and the pool quiesces (Par), or they are the first round's
// frontier (Rounds, which returns the round widths). The workers park but
// stay alive for the next construction. The error is a contained panic.
func (p *Pool[FV, R]) run(d *driver[FV, R], workers int, seed func(fork func(Task[FV, R])), rounds bool) ([]int, error) {
	p.cur = d
	p.ensure(workers)
	var widths []int
	if rounds {
		p.seeds = p.seeds[:0]
		seed(func(tk Task[FV, R]) { p.seeds = append(p.seeds, tk) })
		widths = p.x.Rounds(p.seeds, func(r int) bool {
			d.round = int32(r)
			return !d.failed.Load()
		})
		clear(p.seeds)
	} else {
		seed(func(tk Task[FV, R]) { p.x.Fork(sched.External, tk) })
		p.x.Quiesce()
	}
	p.cur = nil
	return widths, p.x.Err()
}

// Reset rewinds every retained arena for the next construction. Call only
// between constructions, after the previous Result is no longer in use —
// pooled facets and slices are recycled in place.
func (p *Pool[FV, R]) Reset() {
	for i := range p.arenas {
		p.arenas[i].Reset()
	}
}

// Bytes returns the exact size of the facet slabs and int32 blocks the
// worker arenas retain (see Arena.Bytes).
func (p *Pool[FV, R]) Bytes() int64 {
	var n int64
	for i := range p.arenas {
		n += p.arenas[i].Bytes()
	}
	return n
}

// Close retires the worker pool. The Pool must not be used afterwards;
// arenas (and any Result carved from them) remain valid.
func (p *Pool[FV, R]) Close() {
	if p.x != nil {
		p.x.Close()
		p.x = nil
	}
}

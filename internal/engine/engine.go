// Package engine is the generic Algorithm-3 driver: the ridge-chain
// machinery of the paper's parallel randomized incremental construction,
// extracted from the per-geometry packages and parameterized by a compact
// kernel interface. The paper's central claim (Theorems 1.1/4.2) is that the
// algorithm is generic over any configuration space with constant-size
// support sets; this package makes the code reflect that: internal/hull2d
// and internal/hulld are thin geometry kernels, and every schedule — the
// sequential Algorithm 2 loop (Seq), the asynchronous fork-join schedule on
// the work-stealing executor (Par), and the round-synchronous PRAM schedule
// (Rounds) — lives here exactly once.
//
// Division of responsibility:
//
//   - The driver owns scheduling (chain loops, forking, the round loop),
//     the ridge-table handshake (InsertAndSet/GetValue — the second facet to
//     arrive at a ridge forks its chain, lines 20-22 of Algorithm 3), facet
//     life-cycle counters, error/abort propagation, and the per-worker
//     arena + scratch-buffer lifetime discipline.
//   - The kernel owns geometry: facet and ridge representation, pivot
//     lookup, facet construction with exact conflict filtering (the
//     float-filter fast path included), and fresh-ridge enumeration.
//
// Par and Rounds run the same ProcessRidge step (driver.step) on the same
// substrate: one sched.Executor per Pool, with one arena per worker. Par
// loops each chain inside one task; Rounds runs one step per task and
// defers its continuation and forks to the next round (Executor.Rounds).
//
// A schedule or scheduler fix now lands once instead of once per geometry,
// and a new configuration space gets all three schedules by implementing the
// kernel interface (see space.go for the generic route that needs no kernel
// at all, only a core.Space, and runs on the same round loop).
package engine

import (
	"context"
	"math"
	"sync"
	"sync/atomic"

	"parhull/internal/faultinject"
	"parhull/internal/hullstats"
)

// NoPivot is the conflict pivot of an empty conflict set: later than every
// real point index. Kernels must return it from Pivot for facets with no
// conflicts.
const NoPivot = int32(math.MaxInt32)

// Task is one pending ProcessRidge(t1, r, t2) invocation: ridge R currently
// shared by facets T1 and T2. FV is the kernel's facet value type (facets
// are handled as *FV so they can carry atomic liveness state); R is the
// ridge representation (a single vertex index in 2D, a sorted index slice in
// general dimension).
type Task[FV any, R any] struct {
	T1 *FV
	R  R
	T2 *FV
}

// Kernel is the geometry plug of the driver: everything Algorithm 3 needs
// that depends on the configuration space. Implementations must be safe for
// concurrent calls on distinct facets; the driver guarantees each facet is
// created by exactly one worker and killed through atomic test-and-set.
type Kernel[FV any, R any] interface {
	// Pivot returns min C(f) — the conflict pivot b_t of Section 5.2 — or
	// NoPivot for an empty conflict set.
	Pivot(f *FV) int32
	// NewFacet builds the facet joining ridge r with pivot p, supported by
	// (t1, t2): t1 is the facet being replaced (p visible from it), t2 the
	// surviving neighbor. It filters the conflict list per line 16 of
	// Algorithm 3 and records the facet (creation counter, dependence
	// depth). With a non-nil arena the facet and its published slices come
	// from per-worker blocks. An error reports degenerate input and aborts
	// the construction.
	NewFacet(a *Arena[FV], r R, p int32, t1, t2 *FV) (*FV, error)
	// FreshRidges appends to buf the ridges of t that contain the pivot —
	// every ridge of t except r itself (line 20) — and returns the extended
	// slice. Ridge values handed out here are published into the ridge table
	// and into forked tasks, so kernels must carve them from the arena (or
	// heap), never from reused scratch.
	FreshRidges(a *Arena[FV], t *FV, r R, buf []R) []R
	// Kill marks f dead, reporting whether this call was the first. (A facet
	// can be condemned twice — replaced through one ridge and buried through
	// the other — so counters fire only on the first kill.)
	Kill(f *FV) bool
}

// Table is the concurrent ridge multimap M of Algorithm 3, keyed by the
// kernel's ridge representation. Of the two InsertAndSet calls on one ridge
// exactly one returns false, and by then the other facet is visible to
// GetValue (the one-loser contract of Theorems A.1/A.2). The general-
// dimension kernels route through conmap (see table.go); the 2D kernel
// substitutes a flat array of CAS slots indexed by vertex.
type Table[FV any, R any] interface {
	// InsertAndSet registers f on ridge r: (true, nil) means f arrived
	// first, (false, nil) that the other facet did (fork the chain). A
	// non-nil error — conmap.ErrCapacity from the fixed tables — aborts the
	// construction; the caller climbs the degradation ladder.
	InsertAndSet(r R, f *FV) (bool, error)
	GetValue(r R, not *FV) *FV
}

// Config assembles one parallel construction: kernel, ridge table, and the
// shared stats recorder (the same Recorder instance the kernel counts
// visibility tests on).
type Config[FV any, R any] struct {
	Kernel Kernel[FV, R]
	Table  Table[FV, R]
	Rec    *hullstats.Recorder
	// Workers is the work-stealing executor's pool width, for Par and
	// Rounds alike (<= 0 selects GOMAXPROCS). The speedup harness pins it per
	// run so scaling curves do not depend on the ambient GOMAXPROCS.
	Workers int
	// Ctx, when non-nil, cancels the construction cooperatively: chains
	// check it at ridge-step granularity and the run returns ctx.Err() with
	// the pool quiesced. nil means no cancellation.
	Ctx context.Context
	// Pool, when non-nil, runs the construction on a retained substrate:
	// both schedules reuse the pool's workers, arenas, and scratch instead
	// of building them per call. The caller owns the pool's lifecycle (Reset
	// between uses, Close at the end); nil runs the construction on a
	// throwaway pool.
	Pool *Pool[FV, R]
	// Inject arms deterministic fault injection (tests only; nil in
	// production — every hook is nil-safe).
	Inject *faultinject.Injector
}

// failure records the first error of a run and raises the flag its tasks
// poll, so "first error wins" and "cancel promptly" are one mechanism.
type failure struct {
	errOnce sync.Once
	err     error
	failed  atomic.Bool
}

func (f *failure) fail(err error) {
	f.errOnce.Do(func() { f.err = err })
	f.failed.Store(true)
}

// driver carries the per-run scheduling state shared by the schedules.
type driver[FV any, R any] struct {
	k   Kernel[FV, R]
	tbl Table[FV, R]
	rec *hullstats.Recorder
	inj *faultinject.Injector
	failure

	// round is the running round of Rounds (1-based), and 0 under Par: the
	// owner writes it between rounds, while no step runs. observe, when
	// non-nil, receives every step's outcome with that round.
	round   int32
	observe func(kind EventKind, round int32, a, b *FV)
}

// watch fails f with ctx.Err() when ctx is canceled, so every task's
// existing poll of the failure flag doubles as the cancellation check —
// step granularity with no extra atomic on the hot path. The returned stop
// retires the watcher goroutine and waits for it to exit. It must be called
// before f.err is read: a cancellation that lands as the run finishes
// otherwise writes the error concurrently with that read.
func watch(ctx context.Context, f *failure) (stop func()) {
	if ctx == nil || ctx.Done() == nil {
		return func() {}
	}
	quit := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		select {
		case <-ctx.Done():
			f.fail(ctx.Err())
		case <-quit:
		}
	}()
	return func() {
		close(quit)
		<-exited
	}
}

// note reports a step's outcome to the observer of Rounds, if any.
func (d *driver[FV, R]) note(kind EventKind, a, b *FV) {
	if d.observe != nil {
		d.observe(kind, d.round, a, b)
	}
}

// step executes one ProcessRidge iteration of the chain holding tk: it
// either finishes the chain (line 9: both conflict sets empty — the ridge is
// final; line 10: the shared pivot buries the ridge and both facets) and
// reports done=false, or creates the replacement facet (lines 14-17), hands
// the fresh ridges to the table — the second facet to arrive forks its chain
// (lines 20-22) — and returns the continuation task for the ridge shared
// with t2 (line 19). ridges is caller-owned scratch reused across steps.
func (d *driver[FV, R]) step(a *Arena[FV], tk Task[FV, R], ridges []R, fork func(Task[FV, R])) (Task[FV, R], []R, bool) {
	var zero Task[FV, R]
	d.inj.Visit(faultinject.SiteRidgeStep)
	p1, p2 := d.k.Pivot(tk.T1), d.k.Pivot(tk.T2)
	switch {
	case p1 == NoPivot && p2 == NoPivot:
		d.rec.Finalized()
		d.note(EventFinal, tk.T1, tk.T2)
		return zero, ridges, false
	case p1 == p2:
		d.rec.Buried(d.k.Kill(tk.T1))
		d.rec.Buried(d.k.Kill(tk.T2))
		d.note(EventBuried, tk.T1, tk.T2)
		return zero, ridges, false
	case p2 < p1:
		// Lines 11-12: flip so T1 is the facet to replace.
		tk.T1, tk.T2 = tk.T2, tk.T1
		p1 = p2
	}
	t, err := d.k.NewFacet(a, tk.R, p1, tk.T1, tk.T2)
	if err != nil {
		d.fail(err)
		return zero, ridges, false
	}
	d.rec.Replaced(d.k.Kill(tk.T1))
	d.note(EventCreated, t, tk.T1)
	ridges = d.k.FreshRidges(a, t, tk.R, ridges[:0])
	for _, r2 := range ridges {
		first, ierr := d.tbl.InsertAndSet(r2, t)
		if ierr != nil {
			d.fail(ierr)
			return zero, ridges, false
		}
		if !first {
			fork(Task[FV, R]{T1: t, R: r2, T2: d.tbl.GetValue(r2, t)})
		}
	}
	return Task[FV, R]{T1: t, R: tk.R, T2: tk.T2}, ridges, true
}

// Par runs Algorithm 3 under the asynchronous fork-join schedule (the
// binary-forking model of Theorem 5.5) over the initial ridge tasks, on the
// work-stealing executor: each task loops its chain to the end, and forks
// push plain task values onto the forking worker's own deque. seed is
// called once with the root fork function (one call per ridge of the base
// simplex/polygon). It returns the first failure, in precedence order:
// kernel/table error or ctx cancellation (whichever was recorded first),
// then a contained worker panic as *sched.PanicError. On every return path
// the pool has fully quiesced — no goroutine outlives the call.
func Par[FV any, R any](cfg Config[FV, R], seed func(fork func(Task[FV, R]))) error {
	_, err := run(cfg, seed, nil, false)
	return err
}

// EventKind classifies an observed ProcessRidge outcome of the rounds
// schedule (the machine-readable form of the paper's Figure 1 narrative).
type EventKind int

const (
	// EventCreated records a new facet replacing an old one (lines 14-17):
	// the observer receives (new facet, replaced facet).
	EventCreated EventKind = iota
	// EventBuried records an equal-pivot ridge burying both facets (line
	// 10): the observer receives the two facets incident on the ridge.
	EventBuried
	// EventFinal records a ridge whose facets both have empty conflict sets
	// (line 9): the observer receives the two facets.
	EventFinal
)

// Rounds runs Algorithm 3 under the round-synchronous schedule of Theorem
// 5.4, on the same executor, arenas and step as Par: each ready ProcessRidge
// call executes one step per round, its continuation and forks run in the
// next round, and the pool quiesces between rounds (sched.Executor.Rounds).
// The returned widths hold the ready-task frontier of every round, so
// len(widths) is the recursion depth of Theorem 5.3. Flips (lines 11-12) run
// inline and do not consume a round. seed is Par's. observe, when non-nil,
// is called for every outcome with the round and the two facets of the
// event (it must be safe for concurrent calls; the 2D kernel uses it to
// build its per-round Trace). Failures are reported as by Par.
func Rounds[FV any, R any](cfg Config[FV, R], seed func(fork func(Task[FV, R])),
	observe func(kind EventKind, round int32, a, b *FV)) (widths []int, err error) {
	return run(cfg, seed, observe, true)
}

// run mounts one Par or Rounds construction on cfg.Pool, or on a throwaway
// pool when it is nil, and returns its failure as Par documents.
func run[FV any, R any](cfg Config[FV, R], seed func(fork func(Task[FV, R])),
	observe func(EventKind, int32, *FV, *FV), rounds bool) ([]int, error) {

	if cfg.Ctx != nil {
		if err := cfg.Ctx.Err(); err != nil {
			return nil, err
		}
	}
	d := &driver[FV, R]{k: cfg.Kernel, tbl: cfg.Table, rec: cfg.Rec, inj: cfg.Inject, observe: observe}
	p := cfg.Pool
	if p == nil {
		p = NewPool[FV, R]()
		defer p.Close()
	}
	stop := watch(cfg.Ctx, &d.failure)
	widths, perr := p.run(d, cfg.Workers, seed, rounds)
	stop()
	if perr != nil {
		d.fail(perr) // first recorded failure wins; a panic only if nothing else
	}
	return widths, d.err
}

package hull2d

import (
	"context"
	"sync/atomic"

	"parhull/internal/conmap"
	eng "parhull/internal/engine"
	"parhull/internal/faultinject"
	"parhull/internal/geom"
)

// Options configures a construction under any of the three schedules. The
// zero value (or a nil *Options) is the default: a base triangle, the
// vertex-slot ridge table, GOMAXPROCS workers, the line cache on, a fresh
// Reuse. Every construction counts its work into Result.Stats. Seq ignores
// Map, Workers, FilterGrain, and Trace; Par ignores Trace.
type Options struct {
	// Base is the size of the pre-built initial hull (default 3). With
	// Base > 3 the first Base points must be a strictly convex CCW polygon;
	// this is how the Figure 1 example seeds the paper's 7-gon.
	Base int
	// Map is the ridge multimap M of Algorithm 3. Nil selects the
	// vertex-indexed slot array (see ridgeSlots); MapCAS/MapTAS, tests, and
	// the E10 ablation install a conmap table instead.
	Map conmap.RidgeMap[*Facet]
	// Workers pins the work-stealing executor's pool width, which Par and
	// Rounds both run on (<= 0 selects GOMAXPROCS). The created-edge
	// multiset, and under Rounds the round count and widths, are identical
	// for any width (Theorem 5.5; asserted by TestParSchedEquivalence and
	// TestRoundsWidthInvariance) — only the schedule changes.
	Workers int
	// FilterGrain sets the list size above which conflict filtering runs in
	// parallel chunks (0 = default; very large forces the serial path).
	// The output and the multiset of plane-side tests are identical either
	// way — this only reshapes the span (the A1 ablation in cmd/hullbench).
	FilterGrain int
	// NoPlaneCache disables the cached-hyperplane visibility fast path so
	// every test runs the exact determinant predicate (the A2 ablation in
	// cmd/hullbench). The combinatorial output is identical either way.
	NoPlaneCache bool
	// Trace records per-round events (rounds engine only).
	Trace bool
	// Ctx, when non-nil, cancels the construction cooperatively at
	// ridge-step (Par, Rounds) or insertion (Seq) granularity; the run
	// returns ctx.Err() with all workers quiesced.
	Ctx context.Context
	// Inject arms deterministic fault injection (tests only; nil in
	// production).
	Inject *faultinject.Injector
	// Reuse, when non-nil, runs the construction on retained state (engine,
	// arenas, buffers, worker pool) recycled across constructions of every
	// schedule; each call invalidates the previous Result obtained through
	// the same Reuse. The public parhull.Builder is the intended owner. Nil
	// runs the construction on a fresh Reuse, closed on return.
	Reuse *Reuse
}

// or returns *o, or the zero Options when o is nil.
func (o *Options) or() Options {
	if o == nil {
		return Options{}
	}
	return *o
}

func (o *Options) base() int {
	if o.Base == 0 {
		return 3
	}
	return o.Base
}

// ridgeSlots builds the driver's ridge table over plain vertex ids: in 2D a
// ridge IS a single vertex, so the default table is a flat array of CAS slots
// indexed by vertex — a perfect-hash instance of the Algorithm 4 table with
// no locks, no hashing, and no collisions. The engine's Reuse keeps the
// array across constructions, cleared each time. An explicit
// Options.Map routes through the generic conmap implementations instead
// (MapCAS/MapTAS and the E10 ablation).
func (o *Options) ridgeSlots(e *engine) eng.Table[Facet, int32] {
	if o.Map != nil {
		e.initRidgeIDs()
		return conmapSlots{m: o.Map, e: e}
	}
	ru := e.ru
	if cap(ru.slots.slots) < len(e.pts) {
		ru.slots.slots = make([]atomic.Pointer[Facet], len(e.pts))
	}
	ru.slots.slots = ru.slots.slots[:len(e.pts)]
	clear(ru.slots.slots)
	return &ru.slots
}

type vertexSlots struct{ slots []atomic.Pointer[Facet] }

// Meet implements engine.Table as Algorithm 4 on a perfect hash: the first
// facet's CAS claims the vertex's slot, and the second's fails and loads
// its partner. The slot array is indexed by vertex, so it cannot run out of
// capacity; the error is always nil.
func (m *vertexSlots) Meet(v int32, f *Facet) (*Facet, error) {
	if m.slots[v].CompareAndSwap(nil, f) {
		return nil, nil
	}
	return m.slots[v].Load(), nil
}

// Bytes implements engine.Table: one pointer-sized slot per vertex.
func (m *vertexSlots) Bytes() int64 { return 8 * int64(len(m.slots)) }

// conmapSlots adapts a generic conmap.RidgeMap to the vertex-id table.
type conmapSlots struct {
	m conmap.RidgeMap[*Facet]
	e *engine
}

// Meet implements engine.Table.
func (s conmapSlots) Meet(v int32, f *Facet) (*Facet, error) {
	return s.m.Meet(s.e.key1(v), f)
}

// Bytes implements engine.Table.
func (s conmapSlots) Bytes() int64 { return s.m.Bytes() }

// initialTasks yields one task per ridge (shared endpoint) of the base
// polygon.
func initialTasks(facets []*Facet, fork func(eng.Task[Facet, int32])) {
	for i, f := range facets {
		fork(eng.Task[Facet, int32]{T1: f, R: f.B, T2: facets[(i+1)%len(facets)]})
	}
}

// Par computes the convex hull with the parallel incremental Algorithm 3,
// scheduled asynchronously: every ridge chain runs as soon as its facets
// exist, with fork-join spawns for newly ready ridges. This is the
// binary-forking-model execution of Theorem 5.5, run by the generic driver in
// internal/engine on the work-stealing executor.
func Par(pts []geom.Point, opt *Options) (*Result, error) {
	return noTrace(run(pts, opt, eng.SchedPar))
}

// noTrace drops the trace of a schedule that records none.
func noTrace(res *Result, _ *Trace, err error) (*Result, error) { return res, err }

// run is the one construction path of Seq, Par and Rounds: validate pts,
// rewind the Reuse (a fresh one, closed on return, when opt has none), build
// the base polygon, run schedule s over it — engine.Seq on the hull cycle, or
// engine.Par or engine.Rounds (with the trace observer when opt.Trace asks
// for one) on the ridge table — and collect the result.
func run(pts []geom.Point, opt *Options, s eng.Schedule) (*Result, *Trace, error) {
	o := opt.or()
	if o.Reuse == nil {
		o.Reuse = NewReuse()
		defer o.Reuse.Close()
	}
	if err := geom.ValidateCloud(pts, 2); err != nil {
		return nil, nil, err
	}
	ru, grain := o.Reuse, o.FilterGrain
	if s == eng.SchedSeq {
		grain = 0
	}
	e := engineFor(ru, pts, o.base(), grain, o.NoPlaneCache)
	e.inj = o.Inject
	facets, err := e.initialHull()
	if err != nil {
		return nil, nil, err
	}
	cfg := eng.Config[Facet, int32]{Kernel: kernel{e: e}, Reuse: &ru.Reuse, Workers: o.Workers, Ctx: o.Ctx, Inject: o.Inject}
	var widths, sizes []int
	if s == eng.SchedSeq {
		cfg.Geom = ru.geom.reset(len(pts))
		// The base polygon is given, not built incrementally, so |T(Y_{i+1})|
		// is approximate over the base prefix; exact from there on.
		ru.baseSizes = ru.baseSizes[:0]
		for i := range e.base {
			ru.baseSizes = append(ru.baseSizes, min(i+1, e.base))
		}
		sizes, err = seqLoop(cfg, facets, int32(len(pts)), ru.baseSizes)
	} else {
		cfg.Table = o.ridgeSlots(e)
		seed := func(fork func(eng.Task[Facet, int32])) { initialTasks(facets, fork) }
		if s == eng.SchedRounds {
			var observe func(eng.EventKind, int32, *Facet, *Facet)
			if o.Trace {
				e.trace = &Trace{}
				observe = e.observe
			}
			widths, err = eng.Rounds(cfg, seed, observe)
		} else {
			err = eng.Par(cfg, seed)
		}
	}
	if err != nil {
		return nil, nil, err
	}
	res, err := e.collectResult(widths, sizes)
	if err != nil {
		return nil, nil, err
	}
	return res, e.trace, nil
}

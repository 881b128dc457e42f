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
// vertex-slot ridge table, GOMAXPROCS workers, counters and the line cache
// on, a fresh engine. Seq ignores Map, Workers, FilterGrain, and Trace;
// Par ignores Trace.
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
	// NoCounters disables visibility-test counting (for pure-speed runs).
	NoCounters bool
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
	// the same Reuse. The public parhull.Builder is the intended owner.
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
// no locks, no hashing, and no collisions. An engine owned by a Reuse keeps
// the array across constructions, cleared each time. An explicit
// Options.Map routes through the generic conmap implementations instead
// (MapCAS/MapTAS and the E10 ablation).
func (o *Options) ridgeSlots(e *engine) eng.Table[Facet, int32] {
	if o.Map != nil {
		e.initRidgeIDs()
		return conmapSlots{m: o.Map, e: e}
	}
	ru := e.ru
	if ru == nil {
		return &vertexSlots{slots: make([]atomic.Pointer[Facet], len(e.pts))}
	}
	if cap(ru.slots.slots) < len(e.pts) {
		ru.slots.slots = make([]atomic.Pointer[Facet], len(e.pts))
	}
	ru.slots.slots = ru.slots.slots[:len(e.pts)]
	clear(ru.slots.slots)
	return &ru.slots
}

type vertexSlots struct{ slots []atomic.Pointer[Facet] }

// InsertAndSet implements engine.Table. The slot array is indexed by vertex
// (a perfect hash), so it cannot run out of capacity; the error is always nil.
func (m *vertexSlots) InsertAndSet(v int32, f *Facet) (bool, error) {
	return m.slots[v].CompareAndSwap(nil, f), nil
}

// GetValue implements engine.Table.
func (m *vertexSlots) GetValue(v int32, not *Facet) *Facet { return m.slots[v].Load() }

// conmapSlots adapts a generic conmap.RidgeMap to the vertex-id table.
type conmapSlots struct {
	m conmap.RidgeMap[*Facet]
	e *engine
}

// InsertAndSet implements engine.Table.
func (s conmapSlots) InsertAndSet(v int32, f *Facet) (bool, error) {
	return s.m.InsertAndSet(s.e.key1(v), f)
}

// GetValue implements engine.Table.
func (s conmapSlots) GetValue(v int32, not *Facet) *Facet {
	return s.m.GetValue(s.e.key1(v), not)
}

// config assembles the driver configuration for a Par or Rounds
// construction on e.
func (o *Options) config(e *engine) eng.Config[Facet, int32] {
	cfg := eng.Config[Facet, int32]{
		Kernel:  kernel{e: e},
		Table:   o.ridgeSlots(e),
		Rec:     e.rec,
		Workers: o.Workers,
		Ctx:     o.Ctx,
		Inject:  o.Inject,
	}
	if o.Reuse != nil {
		cfg.Pool = o.Reuse.pool
	}
	return cfg
}

// start validates pts and returns the engine of a construction under o —
// o.Reuse's, or a fresh one when it is nil — with its base polygon built.
// grain and stripes are the schedule's conflict-filter grain and facet-log
// width.
func (o *Options) start(pts []geom.Point, grain, stripes int) (*engine, []*Facet, error) {
	if err := geom.ValidateCloud(pts, 2); err != nil {
		return nil, nil, err
	}
	e := engineFor(o.Reuse, pts, o.base(), !o.NoCounters, grain, stripes, o.NoPlaneCache)
	e.inj = o.Inject
	facets, err := e.initialHull()
	if err != nil {
		return nil, nil, err
	}
	return e, facets, nil
}

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
	res, _, err := run(pts, opt, false)
	return res, err
}

// run is the path Par and Rounds share: start the construction, sample the
// heap, run the schedule (engine.Par, or engine.Rounds when rounds is set,
// with the trace observer when opt.Trace asks for one) over the base
// polygon's ridges, and collect the result.
func run(pts []geom.Point, opt *Options, rounds bool) (*Result, *Trace, error) {
	o := opt.or()
	e, facets, err := o.start(pts, o.FilterGrain, parStripes())
	if err != nil {
		return nil, nil, err
	}
	e.rec.SampleHeap()
	cfg := o.config(e)
	seed := func(fork func(eng.Task[Facet, int32])) { initialTasks(facets, fork) }
	var widths []int
	if rounds {
		var observe func(eng.EventKind, int32, *Facet, *Facet)
		if o.Trace {
			e.trace = &Trace{}
			observe = e.observe
		}
		widths, err = eng.Rounds(cfg, seed, observe)
	} else {
		err = eng.Par(cfg, seed)
	}
	if err != nil {
		return nil, nil, err
	}
	res, err := e.collectResult(len(widths))
	if err != nil {
		return nil, nil, err
	}
	res.Stats.RoundWidths = widths
	return res, e.trace, nil
}

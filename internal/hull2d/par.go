package hull2d

import (
	"context"
	"sync/atomic"

	"parhull/internal/conmap"
	eng "parhull/internal/engine"
	"parhull/internal/faultinject"
	"parhull/internal/geom"
)

// Options configures the parallel engines.
type Options struct {
	// Base is the size of the pre-built initial hull (default 3). With
	// Base > 3 the first Base points must be a strictly convex CCW polygon;
	// this is how the Figure 1 example seeds the paper's 7-gon.
	Base int
	// Map is the ridge multimap M of Algorithm 3. Nil selects the growable
	// sharded map; tests and the E10 ablation install the paper's
	// Algorithm 4 (CAS) and Algorithm 5 (TAS) tables instead.
	Map conmap.RidgeMap[*Facet]
	// Workers pins the work-stealing executor's pool width (Par only; <= 0
	// selects GOMAXPROCS). The created-edge multiset is identical for any
	// width (Theorem 5.5; asserted by TestParSchedEquivalence) — only the
	// schedule changes.
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
	// ridge-step granularity; the run returns ctx.Err() with all workers
	// quiesced.
	Ctx context.Context
	// Inject arms deterministic fault injection (tests only; nil in
	// production).
	Inject *faultinject.Injector
	// Reuse, when non-nil, runs the construction on retained state (worker
	// pool, arenas, engine buffers) recycled across Par calls; each call
	// invalidates the previous Result obtained through the same Reuse. The
	// public parhull.Builder is the intended owner.
	Reuse *Reuse
}

func (o *Options) base() int {
	if o == nil || o.Base == 0 {
		return 3
	}
	return o.Base
}

func (o *Options) filterGrain() int {
	if o == nil {
		return 0
	}
	return o.FilterGrain
}

func (o *Options) noPlaneCache() bool { return o != nil && o.NoPlaneCache }

// ridgeSlots builds the driver's ridge table over plain vertex ids: in 2D a
// ridge IS a single vertex, so the default table is a flat array of CAS slots
// indexed by vertex — a perfect-hash instance of the Algorithm 4 table with
// no locks, no hashing, and no collisions. An explicit Options.Map routes
// through the generic conmap implementations instead (the E10 ablation).
func (o *Options) ridgeSlots(e *engine) eng.Table[Facet, int32] {
	if o != nil && o.Map != nil {
		e.initRidgeIDs()
		return conmapSlots{m: o.Map, e: e}
	}
	return &vertexSlots{slots: make([]atomic.Pointer[Facet], len(e.pts))}
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

// config assembles the driver configuration for this construction.
func (o *Options) config(e *engine) eng.Config[Facet, int32] {
	cfg := eng.Config[Facet, int32]{
		Kernel: kernel{e: e},
		Table:  o.ridgeSlots(e),
		Rec:    e.rec,
	}
	if o != nil {
		cfg.Workers = o.Workers
		cfg.Ctx = o.Ctx
		cfg.Inject = o.Inject
		if o.Reuse != nil {
			cfg.Pool = o.Reuse.pool
		}
	}
	return cfg
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
	if err := geom.ValidateCloud(pts, 2); err != nil {
		return nil, err
	}
	var ru *Reuse
	var inj *faultinject.Injector
	if opt != nil {
		ru = opt.Reuse
		inj = opt.Inject
	}
	if ru != nil {
		// The rewind of the retained pool happens inside engineFor; a panic
		// armed here fires on the calling goroutine, before any worker runs.
		inj.Visit(faultinject.SiteBuilderRewind)
	}
	e := engineFor(ru, pts, opt.base(), opt == nil || !opt.NoCounters, opt.filterGrain(), parStripes(), opt.noPlaneCache())
	e.inj = inj
	facets, err := e.initialHull()
	if err != nil {
		return nil, err
	}
	e.rec.SampleHeap()
	if err := eng.Par(opt.config(e), func(fork func(eng.Task[Facet, int32])) {
		initialTasks(facets, fork)
	}); err != nil {
		return nil, err
	}
	return e.collectResult(0)
}

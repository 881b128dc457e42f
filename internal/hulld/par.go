package hulld

import (
	"context"

	"parhull/internal/conmap"
	eng "parhull/internal/engine"
	"parhull/internal/faultinject"
	"parhull/internal/geom"
)

// Options configures the parallel engines.
type Options struct {
	// Map is the ridge multimap M of Algorithm 3 (nil selects the growable
	// sharded map; install conmap.NewCASMap/NewTASMap for the paper's
	// Algorithm 4/5 tables).
	Map conmap.RidgeMap[*Facet]
	// Workers pins the work-stealing executor's pool width (Par only; <= 0
	// selects GOMAXPROCS). The facet output is identical for any width
	// (Theorem 5.5; asserted by TestParSchedEquivalence) — only the
	// schedule changes.
	Workers int
	// NoCounters disables visibility-test counting.
	NoCounters bool
	// FilterGrain sets the list size above which conflict filtering runs in
	// parallel chunks (0 = default; very large forces the serial path).
	FilterGrain int
	// NoPlaneCache disables the cached-hyperplane visibility fast path so
	// every test runs the exact determinant predicate (the A2 ablation in
	// cmd/hullbench). The combinatorial output is identical either way.
	NoPlaneCache bool
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

func (o *Options) filterGrain() int {
	if o == nil {
		return 0
	}
	return o.FilterGrain
}

func (o *Options) noPlaneCache() bool { return o != nil && o.NoPlaneCache }

func (o *Options) ridgeMap(n, d int) conmap.RidgeMap[*Facet] {
	if o != nil && o.Map != nil {
		return o.Map
	}
	return conmap.NewShardedMap[*Facet](eng.DefaultMapCapacity(n, d))
}

// config assembles the driver configuration for this construction.
func (o *Options) config(e *engine, n int) eng.Config[Facet, []int32] {
	cfg := eng.Config[Facet, []int32]{
		Kernel: kernel{e: e},
		Table:  eng.ConmapTable[Facet]{M: o.ridgeMap(n, e.d)},
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

// initialTasks yields one task per ridge of the initial simplex: the ridge
// omitting vertices {i, j} is shared by the facets omitting i and omitting j.
func initialTasks(d int, facets []*Facet, fork func(eng.Task[Facet, []int32])) {
	for i := 0; i <= d; i++ {
		for j := i + 1; j <= d; j++ {
			r := make([]int32, 0, d-1)
			for v := 0; v <= d; v++ {
				if v != i && v != j {
					r = append(r, int32(v))
				}
			}
			fork(eng.Task[Facet, []int32]{T1: facets[i], R: r, T2: facets[j]})
		}
	}
}

// Par computes the d-dimensional convex hull with the parallel incremental
// Algorithm 3 under the asynchronous fork-join schedule (Theorem 5.5), run by
// the generic driver in internal/engine on the work-stealing executor.
func Par(pts []geom.Point, opt *Options) (*Result, error) {
	d, err := validate(pts)
	if err != nil {
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
	e := engineFor(ru, pts, d, opt == nil || !opt.NoCounters, opt.filterGrain(), parStripes(), opt.noPlaneCache())
	e.inj = inj
	facets, err := e.initialHull()
	if err != nil {
		return nil, err
	}
	e.rec.SampleHeap()
	if err := eng.Par(opt.config(e, len(pts)), func(fork func(eng.Task[Facet, []int32])) {
		initialTasks(d, facets, fork)
	}); err != nil {
		return nil, err
	}
	return e.collectResult(0)
}

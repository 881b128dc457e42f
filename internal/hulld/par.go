package hulld

import (
	"context"

	"parhull/internal/conmap"
	eng "parhull/internal/engine"
	"parhull/internal/faultinject"
	"parhull/internal/geom"
)

// Options configures a construction under any of the three schedules. The
// zero value (or a nil *Options) is the default: the sharded ridge map,
// GOMAXPROCS workers, counters and the plane cache on, a fresh engine.
// Seq ignores Map, Workers, and FilterGrain.
type Options struct {
	// Map is the ridge multimap M of Algorithm 3 (nil selects the growable
	// sharded map; install conmap.NewCASMap/NewTASMap for the paper's
	// Algorithm 4/5 tables).
	Map conmap.RidgeMap[*Facet]
	// Workers pins the work-stealing executor's pool width, which Par and
	// Rounds both run on (<= 0 selects GOMAXPROCS). The facet output, and
	// under Rounds the round count and widths, are identical for any width
	// (Theorem 5.5; asserted by TestParSchedEquivalence and
	// TestRoundsWidthInvariance) — only the schedule changes.
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
	// Lift, when non-nil, selects lifted mode: the points are the float
	// lifts (x, y, x²+y²) of these 2D points, index for index, possibly
	// scaled by one power of two. The first three must be a triangle that
	// strictly contains every later point; its lift is the hull's one upper
	// facet, and every other facet is a Delaunay triangle of the 2D points
	// (lower facet). Visibility is decided exactly by InCircle on the 2D
	// points, never on the inexact lifts.
	Lift []geom.Point
}

// or returns *o, or the zero Options when o is nil.
func (o *Options) or() Options {
	if o == nil {
		return Options{}
	}
	return *o
}

// config assembles the driver configuration for a Par or Rounds
// construction on e.
func (o *Options) config(e *engine, n int) eng.Config[Facet, []int32] {
	m := o.Map
	if m == nil {
		m = conmap.NewShardedMap[*Facet](eng.DefaultMapCapacity(n, e.d))
	}
	cfg := eng.Config[Facet, []int32]{
		Kernel:  kernel{e: e},
		Table:   eng.ConmapTable[Facet]{M: m},
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
// o.Reuse's, or a fresh one when it is nil — with its base facets built.
// grain and stripes are the schedule's conflict-filter grain and facet-log
// width.
func (o *Options) start(pts []geom.Point, grain, stripes int) (*engine, []*Facet, error) {
	d, err := validate(pts, o.Lift)
	if err != nil {
		return nil, nil, err
	}
	e := engineFor(o.Reuse, pts, o.Lift, d, !o.NoCounters, grain, stripes, o.NoPlaneCache)
	e.inj = o.Inject
	facets, err := e.initialHull()
	if err != nil {
		return nil, nil, err
	}
	return e, facets, nil
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
func Par(pts []geom.Point, opt *Options) (*Result, error) { return run(pts, opt, false) }

// run is the path Par and Rounds share: start the construction, sample the
// heap, run the schedule (engine.Par, or engine.Rounds when rounds is set)
// over the base simplex's ridges, and collect the result.
func run(pts []geom.Point, opt *Options, rounds bool) (*Result, error) {
	o := opt.or()
	e, facets, err := o.start(pts, o.FilterGrain, parStripes())
	if err != nil {
		return nil, err
	}
	e.rec.SampleHeap()
	cfg := o.config(e, len(pts))
	seed := func(fork func(eng.Task[Facet, []int32])) { initialTasks(e.d, facets, fork) }
	var widths []int
	if rounds {
		widths, err = eng.Rounds(cfg, seed, nil)
	} else {
		err = eng.Par(cfg, seed)
	}
	if err != nil {
		return nil, err
	}
	res, err := e.collectResult(len(widths))
	if err != nil {
		return nil, err
	}
	res.Stats.RoundWidths = widths
	return res, nil
}

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
// GOMAXPROCS workers, the plane cache on, a fresh Reuse. Every construction
// counts its work into Result.Stats. Seq ignores Map, Workers, and
// FilterGrain.
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
	// the same Reuse. The public parhull.Builder is the intended owner. Nil
	// runs the construction on a fresh Reuse, closed on return.
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

// initialTasks yields one task per ridge of the initial simplex: the ridge
// omitting vertices {i, j} is shared by the facets omitting i and omitting j.
// The ridges are carved from one retained buffer of the Reuse, sized for all
// of them before the first is handed out.
func (ru *Reuse) initialTasks(d int, facets []*Facet, fork func(eng.Task[Facet, []int32])) {
	if need := (d + 1) * d / 2 * (d - 1); cap(ru.ridges) < need {
		ru.ridges = make([]int32, 0, need)
	}
	rs := ru.ridges[:0]
	for i := 0; i <= d; i++ {
		for j := i + 1; j <= d; j++ {
			r := rs[len(rs):len(rs)]
			for v := 0; v <= d; v++ {
				if v != i && v != j {
					r = append(r, int32(v))
				}
			}
			rs = rs[:len(rs)+len(r)]
			fork(eng.Task[Facet, []int32]{T1: facets[i], R: r[:len(r):len(r)], T2: facets[j]})
		}
	}
}

// Par computes the d-dimensional convex hull with the parallel incremental
// Algorithm 3 under the asynchronous fork-join schedule (Theorem 5.5), run by
// the generic driver in internal/engine on the work-stealing executor.
func Par(pts []geom.Point, opt *Options) (*Result, error) { return run(pts, opt, eng.SchedPar) }

// run is the one construction path of Seq, Par and Rounds: validate pts,
// rewind the Reuse (a fresh one, closed on return, when opt has none), build
// the base simplex, run schedule s over it — engine.Seq on the ridge-adjacency
// geometry, or engine.Par or engine.Rounds on the ridge table — and collect
// the result.
func run(pts []geom.Point, opt *Options, s eng.Schedule) (*Result, error) {
	o := opt.or()
	if o.Reuse == nil {
		o.Reuse = NewReuse()
		defer o.Reuse.Close()
	}
	d, err := validate(pts, o.Lift)
	if err != nil {
		return nil, err
	}
	ru, grain := o.Reuse, o.FilterGrain
	if s == eng.SchedSeq {
		grain = 0
	}
	e := engineFor(ru, pts, o.Lift, d, grain, o.NoPlaneCache)
	e.inj = o.Inject
	facets, err := e.initialHull()
	if err != nil {
		return nil, err
	}
	cfg := eng.Config[Facet, []int32]{Kernel: kernel{e: e}, Reuse: &ru.Reuse, Workers: o.Workers, Ctx: o.Ctx, Inject: o.Inject}
	var widths, sizes []int
	if s == eng.SchedSeq {
		cfg.Geom = ru.geom.reset(&ru.Arena)
		// The base simplex is given, not built incrementally, so the hull
		// sizes of the base prefix are approximate; exact from there on.
		ru.baseSizes = ru.baseSizes[:0]
		for i := range d + 1 {
			ru.baseSizes = append(ru.baseSizes, min(i+2, d+1))
		}
		sizes, err = seqLoop(cfg, facets, int32(len(pts)), ru.baseSizes)
		if err == nil && ru.geom.crowded {
			err = errCrowded
		}
	} else {
		m := o.Map
		if m == nil {
			m = conmap.NewShardedMap[*Facet](eng.DefaultMapCapacity(len(pts), d))
		}
		cfg.Table = eng.ConmapTable[Facet]{M: m}
		seed := func(fork func(eng.Task[Facet, []int32])) { ru.initialTasks(d, facets, fork) }
		if s == eng.SchedRounds {
			widths, err = eng.Rounds(cfg, seed, nil)
		} else {
			err = eng.Par(cfg, seed)
		}
	}
	if err != nil {
		return nil, err
	}
	return e.collectResult(widths, sizes)
}

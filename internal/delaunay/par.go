package delaunay

import (
	"context"

	"parhull/internal/conmap"
	eng "parhull/internal/engine"
	"parhull/internal/faultinject"
	"parhull/internal/geom"
)

// Options configures the engine paths (Seq, Par, Rounds). The seed
// Triangulate takes no options and remains the checked reference.
type Options struct {
	// Map is the edge multimap M of Algorithm 3 (nil selects the growable
	// sharded map; install conmap.NewCASMap/NewTASMap for the paper's
	// Algorithm 4/5 tables).
	Map conmap.RidgeMap[*Triangle]
	// Workers pins the work-stealing executor's pool width (Par only; <= 0
	// selects GOMAXPROCS). The triangle multiset is identical for any width.
	Workers int
	// NoCounters disables visibility-test counting.
	NoCounters bool
	// FilterGrain sets the list size above which conflict filtering runs in
	// parallel chunks (0 = default; very large forces the serial path).
	FilterGrain int
	// NoPredCache disables the cached lifted-plane in-circle filter so
	// every conflict test runs the exact InCircle predicate (ablation; the
	// combinatorial output is identical either way).
	NoPredCache bool
	// Ctx, when non-nil, cancels the construction cooperatively at
	// ridge-step (Par/Rounds) or insertion (Seq) granularity.
	Ctx context.Context
	// Inject arms deterministic fault injection (tests only).
	Inject *faultinject.Injector
}

func (o *Options) counters() bool { return o == nil || !o.NoCounters }

func (o *Options) filterGrain() int {
	if o == nil {
		return 0
	}
	return o.FilterGrain
}

func (o *Options) noPredCache() bool { return o != nil && o.NoPredCache }

func (o *Options) ctx() context.Context {
	if o == nil {
		return nil
	}
	return o.Ctx
}

func (o *Options) inject() *faultinject.Injector {
	if o == nil {
		return nil
	}
	return o.Inject
}

func (o *Options) ridgeMap(n int) conmap.RidgeMap[*Triangle] {
	if o != nil && o.Map != nil {
		return o.Map
	}
	return conmap.NewShardedMap[*Triangle](eng.DefaultMapCapacity(n, 2))
}

// config assembles the driver configuration for this construction.
func (o *Options) config(e *dEngine) eng.Config[Triangle, []int32] {
	cfg := eng.Config[Triangle, []int32]{
		Kernel: kernel{e: e},
		Table:  eng.ConmapTable[Triangle]{M: o.ridgeMap(e.n)},
		Rec:    e.rec,
	}
	if o != nil {
		cfg.Workers = o.Workers
		cfg.Ctx = o.Ctx
		cfg.Inject = o.Inject
	}
	return cfg
}

// Par computes the Delaunay triangulation with the parallel incremental
// Algorithm 3 under the asynchronous fork-join schedule, run by the generic
// driver in internal/engine. Points are inserted in the order given
// (shuffle for the randomized depth bound); the triangle multiset matches
// the seed Triangulate on the same order.
func Par(pts []geom.Point, opt *Options) (*Result, error) {
	e, err := newDEngine(pts, opt.counters(), opt.filterGrain(), parStripes(), opt.noPredCache())
	if err != nil {
		return nil, err
	}
	root, outers, edges, err := e.initial()
	if err != nil {
		return nil, err
	}
	e.rec.SampleHeap()
	if err := eng.Par(opt.config(e), func(fork func(eng.Task[Triangle, []int32])) {
		for k := 0; k < 3; k++ {
			fork(eng.Task[Triangle, []int32]{T1: root, R: edges[k], T2: outers[k]})
		}
	}); err != nil {
		return nil, err
	}
	return e.collectResult(0)
}

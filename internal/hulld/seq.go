package hulld

import (
	"context"
	"fmt"

	eng "parhull/internal/engine"
	"parhull/internal/faultinject"
	"parhull/internal/geom"
)

// Seq computes the d-dimensional convex hull by the sequential randomized
// incremental method — Algorithm 2, run by the generic loop in
// internal/engine — inserting points in the order given. As in hull2d, its
// plane-side tests are exactly the conflict filters — the same multiset
// Algorithm 3 performs.
func Seq(pts []geom.Point) (*Result, error) { return NewSeqReuse().seq(nil, nil, pts, true, false) }

// SeqCtx is Seq with cooperative cancellation (checked at insertion
// granularity), optional fault injection (nil in production), and the
// plane-cache ablation switch — the fully-plumbed entry the public layer
// calls.
func SeqCtx(ctx context.Context, inj *faultinject.Injector, pts []geom.Point, noPlane bool) (*Result, error) {
	return NewSeqReuse().seq(ctx, inj, pts, true, noPlane)
}

// SeqCounted is Seq with visibility-test counting switchable.
func SeqCounted(pts []geom.Point, counters bool) (*Result, error) {
	return NewSeqReuse().seq(nil, nil, pts, counters, false)
}

// SeqNoPlaneCache is Seq with the cached-hyperplane fast path disabled, so
// every visibility test runs the exact determinant predicate (ablation and
// cross-engine identity tests).
func SeqNoPlaneCache(pts []geom.Point) (*Result, error) {
	return NewSeqReuse().seq(nil, nil, pts, true, true)
}

// seqGeom supplies the d-dimensional geometry of the generic Algorithm 2 loop
// (engine.Seq): a ridge-adjacency map locates the live neighbor across each
// ridge of a visible facet. A ridge of a hull in general position has exactly
// two alive facets, so each entry holds two slots, and a facet registering on
// a ridge takes a slot whose facet has died. A third alive facet on one ridge
// cannot be filed; it sets crowded, which surfaces as ErrDegenerate.
type seqGeom struct {
	adj     map[ridgeMapKey][2]*Facet
	a       *arena // carves the boundary-ridge slices
	crowded bool
}

// MarkVisible implements engine.SeqGeometry: membership is tracked by
// stamping the facet's scratch mark with the insertion index (facets are born
// with mark 0 and i >= d+1 > 0, so stale marks never collide).
func (g *seqGeom) MarkVisible(f *Facet, i int32) bool {
	if !f.Alive() || f.mark == i {
		return false
	}
	f.mark = i
	return true
}

// Boundary implements engine.SeqGeometry: a boundary ridge has one incident
// facet visible and its live neighbor not (an interior ridge of the visible
// region has both marked, and is skipped).
func (g *seqGeom) Boundary(vis []*Facet, i int32, tasks []eng.Task[Facet, []int32]) ([]eng.Task[Facet, []int32], error) {
	if g.crowded {
		return nil, errCrowded
	}
	for _, f := range vis {
		for qi := range f.Verts {
			slot := g.adj[ridgeKeyOmit(f.Verts, qi)]
			nb := slot[0]
			if nb == f {
				nb = slot[1]
			}
			if nb == nil || !nb.Alive() {
				return nil, fmt.Errorf("%w: ridge of %v has no live neighbor", ErrDegenerate, f)
			}
			if nb.mark == i {
				continue // interior ridge of the visible region
			}
			tasks = append(tasks, eng.Task[Facet, []int32]{T1: f, R: ridgeWithoutIn(g.a, f, f.Verts[qi]), T2: nb})
		}
	}
	return tasks, nil
}

// Register implements engine.SeqGeometry.
func (g *seqGeom) Register(f *Facet) {
	for omit := range f.Verts {
		k := ridgeKeyOmit(f.Verts, omit)
		slot := g.adj[k]
		switch {
		case slot[0] == nil || !slot[0].Alive():
			slot[0] = f
		case slot[1] == nil || !slot[1].Alive():
			slot[1] = f
		default:
			g.crowded = true
			continue
		}
		g.adj[k] = slot
	}
}

var errCrowded = fmt.Errorf("%w: a ridge has more than two alive facets", ErrDegenerate)

// seqLoop is the Algorithm 2 loop seq runs: engine.Seq. The identity tests
// swap in the conflict-graph oracle of internal/engine/seqref.
var seqLoop = eng.Seq[Facet, []int32]

// seq runs one sequential construction on sr's retained engine, arena,
// buckets, and buffers. The one-shot entry points run it on a fresh SeqReuse.
func (sr *SeqReuse) seq(ctx context.Context, inj *faultinject.Injector, pts []geom.Point, counters, noPlane bool) (*Result, error) {
	d, err := validate(pts)
	if err != nil {
		return nil, err
	}
	e := sr.engineFor(pts, d, counters, 0, 1, noPlane)
	e.inj = inj
	g := &sr.geom
	clear(g.adj)
	g.a, g.crowded = sr.arena, false
	cfg := eng.SeqConfig[Facet, []int32]{
		Ctx: ctx, Inject: inj, Kernel: kernel{e: e}, Geom: g, Rec: e.rec,
		Arena: sr.arena, Scratch: &sr.loop,
	}
	facets, err := e.initialHull()
	if err != nil {
		return nil, err
	}
	// baseSizes[i] approximates the hull size over the base prefix (the base
	// simplex is given, not built incrementally); exact from here on.
	baseSizes := make([]int, d+1)
	for i := range baseSizes {
		baseSizes[i] = min(i+2, d+1)
	}
	hullSizes, err := seqLoop(cfg, facets, int32(len(pts)), baseSizes)
	if err == nil && g.crowded {
		err = errCrowded
	}
	if err != nil {
		return nil, err
	}
	res, err := e.collectResult(0)
	if err == nil {
		res.HullSizes = hullSizes
	}
	return res, err
}

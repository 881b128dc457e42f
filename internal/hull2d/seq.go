package hull2d

import (
	"context"
	"fmt"

	eng "parhull/internal/engine"
	"parhull/internal/faultinject"
	"parhull/internal/geom"
)

// Seq computes the convex hull by the sequential randomized incremental
// method — Algorithm 2 of the paper, run by the generic loop in
// internal/engine — inserting points in the order given. Its plane-side
// tests are exactly the conflict-list constructions, the same multiset of
// tests Algorithm 3 performs (this equality is asserted by tests).
//
// The facets it creates carry the same dependence depths as the parallel
// engines: the depth of a facet built on boundary ridge r between visible
// facet t1 and surviving facet t2 is 1 + max(depth(t1), depth(t2)), which is
// precisely the configuration dependence graph of Definition 4.1.
func Seq(pts []geom.Point) (*Result, error) {
	return NewSeqReuse().seqFrom(nil, nil, pts, 3, true, false)
}

// SeqCtx is Seq with cooperative cancellation (checked at insertion
// granularity), optional fault injection (nil in production), and the
// plane-cache ablation switch — the fully-plumbed entry the public layer
// calls.
func SeqCtx(ctx context.Context, inj *faultinject.Injector, pts []geom.Point, noPlane bool) (*Result, error) {
	return NewSeqReuse().seqFrom(ctx, inj, pts, 3, true, noPlane)
}

// SeqFrom is Seq starting from a pre-built convex CCW polygon on the first
// base points (used by the Figure 1 driver and cross-engine tests).
func SeqFrom(pts []geom.Point, base int, counters bool) (*Result, error) {
	return NewSeqReuse().seqFrom(nil, nil, pts, base, counters, false)
}

// SeqNoPlaneCache is Seq with the cached-hyperplane fast path disabled, so
// every visibility test runs the exact determinant predicate (ablation and
// cross-engine identity tests).
func SeqNoPlaneCache(pts []geom.Point) (*Result, error) {
	return NewSeqReuse().seqFrom(nil, nil, pts, 3, true, true)
}

// seqGeom supplies the 2D geometry of the generic Algorithm 2 loop
// (engine.Seq): the hull is a doubly linked cycle of directed edges indexed
// by vertex, and the visible region of a point is a contiguous arc whose two
// boundary ridges are found from the arc's endpoints.
type seqGeom struct {
	// next[v] is the alive edge leaving vertex v, prev[v] the edge entering
	// it (a vertex has at most one of each; replaced entries are simply
	// overwritten by Register).
	next, prev []*Facet
}

// reset sizes and empties the cycle arrays for n points, reusing their
// backing arrays.
func (g *seqGeom) reset(n int) {
	if cap(g.next) < n {
		g.next, g.prev = make([]*Facet, n), make([]*Facet, n)
	}
	g.next, g.prev = g.next[:n], g.prev[:n]
	clear(g.next)
	clear(g.prev)
}

// MarkVisible implements engine.SeqGeometry: membership in the visible set is
// tracked by stamping the facet's scratch mark with the insertion index
// (facets are born with mark 0 and i >= 3; a facet sits in exactly one pivot
// bucket, so no dedup check is needed).
func (g *seqGeom) MarkVisible(f *Facet, i int32) bool {
	if !f.Alive() {
		return false
	}
	f.mark = i
	return true
}

// Boundary implements engine.SeqGeometry: the visible region is a contiguous
// arc; its boundary ridges (line 6) are the unique start (predecessor not
// visible) and end (successor not visible) of the arc.
func (g *seqGeom) Boundary(vis []*Facet, i int32, tasks []eng.Task[Facet, int32]) ([]eng.Task[Facet, int32], error) {
	var eStart, eEnd *Facet
	for _, f := range vis {
		if p := g.prev[f.A]; p == nil || p.mark != i {
			eStart = f
		}
		if s := g.next[f.B]; s == nil || s.mark != i {
			eEnd = f
		}
	}
	if eStart == nil || eEnd == nil {
		return nil, fmt.Errorf("%w: visible region of point %d wraps the whole hull", ErrDegenerate, i)
	}
	tasks = append(tasks,
		eng.Task[Facet, int32]{T1: eStart, R: eStart.A, T2: g.prev[eStart.A]},
		eng.Task[Facet, int32]{T1: eEnd, R: eEnd.B, T2: g.next[eEnd.B]})
	return tasks, nil
}

// Register implements engine.SeqGeometry.
func (g *seqGeom) Register(f *Facet) {
	g.next[f.A] = f
	g.prev[f.B] = f
}

// seqLoop is the Algorithm 2 loop seqFrom runs: engine.Seq. The identity
// tests swap in the conflict-graph oracle of internal/engine/seqref.
var seqLoop = eng.Seq[Facet, int32]

// seqFrom runs one sequential construction on sr's retained engine, arena,
// buckets, and buffers. The one-shot entry points run it on a fresh SeqReuse.
func (sr *SeqReuse) seqFrom(ctx context.Context, inj *faultinject.Injector, pts []geom.Point, base int, counters, noPlane bool) (*Result, error) {
	if err := geom.ValidateCloud(pts, 2); err != nil {
		return nil, err
	}
	e := sr.engineFor(pts, base, counters, 0, 1, noPlane)
	e.inj = inj
	g := &sr.geom
	g.reset(len(pts))
	cfg := eng.SeqConfig[Facet, int32]{
		Ctx: ctx, Inject: inj, Kernel: kernel{e: e}, Geom: g, Rec: e.rec,
		Arena: sr.arena, Scratch: &sr.loop,
	}
	facets, err := e.initialHull()
	if err != nil {
		return nil, err
	}
	// baseSizes[i] approximates |T(Y_{i+1})| for the base prefix (the base
	// polygon is given, not built incrementally); exact from here on.
	baseSizes := make([]int, e.base)
	for i := range baseSizes {
		baseSizes[i] = min(i+1, e.base)
	}
	hullSizes, err := seqLoop(cfg, facets, int32(len(pts)), baseSizes)
	if err != nil {
		return nil, err
	}
	res, err := e.collectResult(0)
	if err == nil {
		res.HullSizes = hullSizes
	}
	return res, err
}

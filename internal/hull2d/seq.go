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
// Result.Created lists its edges in creation order.
//
// The facets it creates carry the same dependence depths as the parallel
// engines: the depth of a facet built on boundary ridge r between visible
// facet t1 and surviving facet t2 is 1 + max(depth(t1), depth(t2)), which is
// precisely the configuration dependence graph of Definition 4.1.
//
// Seq reads Base, Ctx, Inject, NoPlaneCache, and Reuse from opt
// (nil is the default). Without a Reuse it runs on a fresh one, so its
// facets and conflict lists come from one arena either way.
func Seq(pts []geom.Point, opt *Options) (*Result, error) {
	return noTrace(run(pts, opt, eng.SchedSeq))
}

// SeqCtx is Seq with cooperative cancellation, optional fault injection
// (nil in production), and the plane-cache ablation switch as arguments. It
// is kept only for bench/trace.go, a separate module that calls it.
func SeqCtx(ctx context.Context, inj *faultinject.Injector, pts []geom.Point, noPlane bool) (*Result, error) {
	return Seq(pts, &Options{Ctx: ctx, Inject: inj, NoPlaneCache: noPlane})
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
// backing arrays, and returns g.
func (g *seqGeom) reset(n int) *seqGeom {
	if cap(g.next) < n {
		g.next, g.prev = make([]*Facet, n), make([]*Facet, n)
	}
	g.next, g.prev = g.next[:n], g.prev[:n]
	clear(g.next)
	clear(g.prev)
	return g
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

// seqLoop is the Algorithm 2 loop Seq runs: engine.Seq. The identity
// tests swap in the conflict-graph oracle of internal/engine/seqref.
var seqLoop = eng.Seq[Facet, int32]

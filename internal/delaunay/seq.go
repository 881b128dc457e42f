package delaunay

import (
	"fmt"

	eng "parhull/internal/engine"
	"parhull/internal/geom"
)

// seqGeom supplies the Delaunay geometry of the generic Algorithm 2 loop
// (engine.Seq): an edge-to-triangles adjacency map, pruned lazily, locates
// the live neighbor across each edge of a visible (conflicting) triangle.
// The three outer sentinels are registered up front so every bounding edge
// has a live neighbor too.
type seqGeom struct {
	adj map[[2]int32][]*Triangle
}

// MarkVisible implements engine.SeqGeometry. The stamp is i+1: unlike the
// hull kernels, the Delaunay loop has no base prefix (insertion starts at
// index 0), which would collide with the zero-initialized mark.
func (g *seqGeom) MarkVisible(t *Triangle, i int32) bool {
	if !t.Alive() || t.mark == i+1 {
		return false
	}
	t.mark = i + 1
	return true
}

// Boundary implements engine.SeqGeometry: a boundary edge of the cavity has
// one incident triangle conflicting and its live neighbor not (an interior
// edge has both stamped, and is skipped).
func (g *seqGeom) Boundary(vis []*Triangle, i int32, tasks []eng.Task[Triangle, []int32]) ([]eng.Task[Triangle, []int32], error) {
	for _, t := range vis {
		for k := 0; k < 3; k++ {
			a, b := t.Verts[k], t.Verts[(k+1)%3]
			key := edgeKey(a, b)
			var nb *Triangle
			list := g.adj[key]
			aliveList := list[:0]
			for _, h := range list {
				if h.Alive() {
					aliveList = append(aliveList, h)
					if h != t {
						nb = h
					}
				}
			}
			g.adj[key] = aliveList
			if nb == nil {
				return nil, fmt.Errorf("%w: edge (%d %d) of %v has no live neighbor", ErrDegenerate, a, b, t)
			}
			if nb.mark == i+1 {
				continue // interior cavity edge
			}
			edge := make([]int32, 2)
			fillEdge(edge, a, b)
			tasks = append(tasks, eng.Task[Triangle, []int32]{T1: t, R: edge, T2: nb})
		}
	}
	return tasks, nil
}

// Register implements engine.SeqGeometry, linking t's real edges (an outer
// sentinel's two edges through its -1 slot are skipped — only its bounding
// edge participates in adjacency).
func (g *seqGeom) Register(t *Triangle) {
	for k := 0; k < 3; k++ {
		a, b := t.Verts[k], t.Verts[(k+1)%3]
		if a < 0 || b < 0 {
			continue
		}
		key := edgeKey(a, b)
		g.adj[key] = append(g.adj[key], t)
	}
}

func edgeKey(a, b int32) [2]int32 {
	if a > b {
		a, b = b, a
	}
	return [2]int32{a, b}
}

// Seq computes the Delaunay triangulation by the sequential randomized
// incremental method — Algorithm 2, run by the generic loop in
// internal/engine — inserting points in the order given. Its conflict tests
// are exactly the merge-filters of the parallel engines, so the created
// triangle multiset matches Par, Rounds, and the seed Triangulate.
func Seq(pts []geom.Point, opt *Options) (*Result, error) {
	e, err := newDEngine(pts, opt.counters(), opt.filterGrain(), 1, opt.noPredCache())
	if err != nil {
		return nil, err
	}
	root, outers, _, err := e.initial()
	if err != nil {
		return nil, err
	}
	g := &seqGeom{adj: map[[2]int32][]*Triangle{}}
	for _, o := range outers {
		g.Register(o)
	}
	cfg := eng.SeqConfig[Triangle, []int32]{Kernel: kernel{e: e}, Geom: g, Rec: e.rec, Ctx: opt.ctx(), Inject: opt.inject()}
	if _, err := seqLoop(cfg, []*Triangle{root}, int32(e.n), nil); err != nil {
		return nil, err
	}
	return e.collectResult(0)
}

// seqLoop is the Algorithm 2 loop Seq runs: engine.Seq. The identity tests
// swap in the conflict-graph oracle of internal/engine/seqref.
var seqLoop = eng.Seq[Triangle, []int32]

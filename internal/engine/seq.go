package engine

import (
	"context"

	"parhull/internal/faultinject"
	"parhull/internal/hullstats"
)

// SeqGeometry supplies the geometry-specific pieces of the sequential
// Algorithm 2 loop that are not already in the Kernel: the pivot buckets are
// generic (see Seq), but how a geometry finds the boundary ridges of a
// visible region — the linked hull cycle in 2D, the ridge-adjacency map in
// general dimension — is not.
type SeqGeometry[FV any, R any] interface {
	// MarkVisible stamps f as visible for insertion step i and reports
	// whether f belongs to the visible set R <- C^-1(v_i) of line 5 (alive,
	// and not already stamped this step). Stamps are how Boundary later
	// distinguishes visible facets from survivors.
	MarkVisible(f *FV, i int32) bool
	// Boundary appends one task per boundary ridge of the visible region
	// (line 6) — ridge r with visible facet T1 and surviving neighbor T2 —
	// and returns the extended slice. It runs after every member of vis has
	// been stamped. An error reports degenerate input.
	Boundary(vis []*FV, i int32, tasks []Task[FV, R]) ([]Task[FV, R], error)
	// Register links a facet into the geometry's adjacency structure (the
	// 2D hull cycle, the d-dimensional ridge map). Called for the base
	// facets and for every created facet, after the step's kills.
	Register(f *FV)
}

// SeqConfig assembles one sequential construction: kernel, geometry, the
// stats recorder the kernel counts on, and the optional retained state of a
// reusing owner.
type SeqConfig[FV any, R any] struct {
	Kernel Kernel[FV, R]
	Geom   SeqGeometry[FV, R]
	Rec    *hullstats.Recorder
	// Ctx, when non-nil, cancels the loop cooperatively at insertion
	// granularity (the sequential analogue of the ridge-step checks in
	// Par/Rounds).
	Ctx context.Context
	// Inject arms deterministic fault injection at the same boundary (nil in
	// production).
	Inject *faultinject.Injector
	// Arena, when non-nil, supplies every created facet and its published
	// slices; nil allocates them on the heap.
	Arena *Arena[FV]
	// Scratch, when non-nil, retains the pivot buckets and per-step buffers
	// across constructions; nil builds them per call.
	Scratch *SeqScratch[FV, R]
}

// SeqScratch is the working state of Seq: the pivot buckets and the
// per-step buffers. The zero value is ready; every buffer is grow-only. The
// hull-size series Seq returns is backed by it, so it stays valid only until
// the next construction on the same scratch.
type SeqScratch[FV any, R any] struct {
	// Pivot buckets as intrusive lists over registration ids: head[p] and
	// tail[p] are the first and last facet registered with pivot p (-1 when
	// empty), next[id] the facet after id in its bucket, facets[id] the
	// facet itself.
	head, tail []int32
	next       []int32
	facets     []*FV

	vis     []*FV
	tasks   []Task[FV, R]
	created []*FV
	sizes   []int
}

// reset empties the buckets for a construction over n points.
func (s *SeqScratch[FV, R]) reset(n int32) {
	if int32(cap(s.head)) < n {
		s.head = make([]int32, n)
		s.tail = make([]int32, n)
	}
	s.head, s.tail = s.head[:n], s.tail[:n]
	for i := range s.head {
		s.head[i] = -1
	}
	clear(s.facets) // drop the previous construction's facets
	s.facets, s.next = s.facets[:0], s.next[:0]
}

// add appends f to the bucket of its pivot p (facets with an empty conflict
// list are never visible again and are not registered).
func (s *SeqScratch[FV, R]) add(p int32, f *FV) {
	if p == NoPivot {
		return
	}
	id := int32(len(s.facets))
	s.facets = append(s.facets, f)
	s.next = append(s.next, -1)
	if s.head[p] < 0 {
		s.head[p] = id
	} else {
		s.next[s.tail[p]] = id
	}
	s.tail[p] = id
}

// Seq runs the sequential randomized incremental method — Algorithm 2 —
// inserting points base..n-1 in index order over the given base facets. Its
// plane-side tests are exactly the conflict filters: the same multiset
// Algorithm 3 performs (asserted by the cross-engine tests of both kernels).
//
// The visible set C^-1(v_i) of line 5 comes from pivot buckets instead of the
// bipartite point->facet conflict graph. Pivot invariant: when step i
// starts, every alive facet's conflict list holds only indices >= i — a
// facet that conflicted with an earlier v_j was visible at step j and died
// there, and facets created at step j drop v_j from their merged lists. So
// the alive facets conflicting with v_i are exactly the alive facets whose
// pivot (the minimum of the ascending conflict list) is i. Each facet is
// filed once, in its pivot's bucket, in creation order — the order the
// conflict graph listed it in — so the visible sets, their order, the
// created facets, and every counter are those of the conflict-graph loop
// (asserted against the oracle in internal/engine/seqref).
//
// baseSizes seeds the per-step hull-size series for the base prefix; the
// returned slice extends it with the facet count after each insertion (the
// |T(Y_i)| of the Theorem 3.1 bound).
func Seq[FV any, R any](cfg SeqConfig[FV, R], facets []*FV, n int32, baseSizes []int) ([]int, error) {
	k, g, a := cfg.Kernel, cfg.Geom, cfg.Arena
	s := cfg.Scratch
	if s == nil {
		s = new(SeqScratch[FV, R])
	}
	s.reset(n)
	for _, f := range facets {
		g.Register(f)
		s.add(k.Pivot(f), f)
	}

	s.sizes = append(s.sizes[:0], baseSizes...)
	alive := len(facets)
	for i := int32(len(baseSizes)); i < n; i++ {
		if cfg.Ctx != nil {
			if err := cfg.Ctx.Err(); err != nil {
				return nil, err
			}
		}
		cfg.Inject.Visit(faultinject.SiteSeqInsert)
		// R <- C^-1(v_i): the facets visible from the new point (line 5).
		s.vis = s.vis[:0]
		for id := s.head[i]; id >= 0; id = s.next[id] {
			if f := s.facets[id]; g.MarkVisible(f, i) {
				s.vis = append(s.vis, f)
			}
		}
		if len(s.vis) == 0 {
			s.sizes = append(s.sizes, alive)
			continue // v_i falls inside the current hull
		}
		// Lines 6-10: one new facet per boundary ridge, with conflict lists
		// filtered from the two incident facets.
		var err error
		s.tasks, err = g.Boundary(s.vis, i, s.tasks[:0])
		if err != nil {
			return nil, err
		}
		s.created = s.created[:0]
		for _, tk := range s.tasks {
			t, err := k.NewFacet(a, tk.R, i, tk.T1, tk.T2)
			if err != nil {
				return nil, err
			}
			s.created = append(s.created, t)
		}
		// Line 11: H <- H \ R.
		for _, f := range s.vis {
			cfg.Rec.Replaced(k.Kill(f))
		}
		for _, t := range s.created {
			g.Register(t)
			s.add(k.Pivot(t), t)
		}
		alive += len(s.created) - len(s.vis)
		s.sizes = append(s.sizes, alive)
	}
	return s.sizes, nil
}

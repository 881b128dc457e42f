// Package hull2d implements randomized incremental convex hull in the plane:
// the sequential Algorithm 2 of the paper and the parallel Algorithm 3 in
// two flavors — an asynchronous fork-join engine (the binary-forking model
// of Theorem 5.5) and a round-synchronous engine (the PRAM schedule of
// Theorem 5.4) that exposes the recursion depth of Theorem 5.3 directly.
//
// In 2D a facet is a directed hull edge A->B with the interior on its left;
// a ridge is a shared endpoint of two adjacent edges; and the conflict set
// of an edge is the set of not-yet-inserted points strictly to its right.
// All engines insert points in the order given (callers shuffle for the
// randomized bounds), perform identical plane-side tests through exact
// predicates, and create the identical set of facets (asserted by tests) —
// only the schedule differs, exactly as Section 5.2 describes. Seq, Par, and
// Rounds all take (pts, *Options) and run one construction path (run), and
// one Reuse carries the retained state of every schedule across
// constructions. The construction lifecycle — the arenas, the worker pool,
// the rewind, and the walk that reads the created facets back — is the
// engine's scaffold (engine.Reuse), which Reuse embeds; this package keeps
// only the geometry.
//
// Visibility hot path: a new edge's line (normal and offset, three
// subtractions and a dot product) is computed once, into the creating
// worker's plane slot (engine.PlaneSlot), and lives there only while the
// edge's own conflict list is filtered, so a retained Facet holds just its
// endpoints, conflict list and depth. Point coordinates live in a flat
// geom.PointStore, and a single static certification threshold for the
// whole cloud (geom.StaticFilterEps over the store's per-dimension maxima)
// is computed once per construction. A plane-side test is then a 2-term dot
// product over contiguous memory plus one comparison; only when the result
// lands inside the threshold does the engine fall back to the exact Orient2D
// predicate, so the combinatorial output is bit-identical to the pure
// determinant path (Options.NoPlaneCache, kept for ablation). The batch
// scan over those lines is the shared conflict.PlaneFilter: this kernel
// supplies the slot's line as a stride-2 row and Orient2D as the exact
// predicate (filter.go).
//
// The engines require the input to be in general position (no 3 collinear
// points among those that interact with the hull boundary; see README).
package hull2d

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"parhull/internal/conflict"
	"parhull/internal/conmap"
	eng "parhull/internal/engine"
	"parhull/internal/faultinject"
	"parhull/internal/geom"
	"parhull/internal/hullstats"
)

// ErrDegenerate is returned when the input violates the general-position
// requirement in a way the engines detect (fewer than 3 points, or a
// collinear/duplicate base triangle).
var ErrDegenerate = errors.New("hull2d: degenerate input (need 3 non-collinear initial points)")

// noPivot is the conflict pivot of an empty conflict set: later than every
// real point index (the driver's sentinel).
const noPivot = eng.NoPivot

// arena is this kernel's allocator: the generic bump arena instantiated at
// the 2D facet type. Every facet comes from one. A 2D facet stores its
// endpoints inline, so the only published slices are conflict lists.
type arena = eng.Arena[Facet]

// kernel adapts the 2D geometry to the generic Algorithm-3 driver in
// internal/engine: facets are directed edges, a ridge is a single shared
// endpoint, and the fresh ridge of a new edge is the pivot it just absorbed.
type kernel struct{ e *engine }

// Pivot implements engine.Kernel.
func (k kernel) Pivot(f *Facet) int32 { return f.pivot() }

// NewFacet implements engine.Kernel (2D facet construction cannot fail: the
// base triangle fixed the orientation and conflict filtering is total).
func (k kernel) NewFacet(a *arena, r int32, p int32, t1, t2 *Facet) (*Facet, error) {
	return k.e.newFacet(a, r, p, t1, t2), nil
}

// FreshRidges implements engine.Kernel: the one fresh ridge of the new edge
// is its endpoint other than r — the pivot just inserted.
func (k kernel) FreshRidges(a *arena, t *Facet, r int32, buf []int32) []int32 {
	if t.A == r {
		return append(buf, t.B)
	}
	return append(buf, t.A)
}

// Kill implements engine.Kernel.
func (k kernel) Kill(f *Facet) bool { return f.kill() }

// Facet is a directed hull edge A->B (indices into the insertion order).
// Facets are immutable after creation except for the liveness flag: the
// defining endpoints, conflict list and depth never change, which is what
// makes the relaxed schedule of Algorithm 3 safe. The edge's line is not
// kept: it lives in the creating worker's plane slot (engine.PlaneSlot)
// only while the edge's own conflict list is filtered.
type Facet struct {
	A, B  int32
	Conf  []int32 // conflict set: visible points, ascending insertion index
	Depth int32   // configuration-dependence-graph depth (Definition 4.1)

	// mark is scratch for the sequential engine's per-insertion visible-set
	// membership (holds the insertion index; never touched concurrently).
	mark int32

	dead atomic.Bool
}

// pivot returns min(C(t)) — the conflict pivot b_t of Section 5.2 — or
// noPivot for an empty conflict set.
func (f *Facet) pivot() int32 {
	if len(f.Conf) == 0 {
		return noPivot
	}
	return f.Conf[0]
}

// Alive reports whether the facet is still part of the hull H.
func (f *Facet) Alive() bool { return !f.dead.Load() }

// kill marks the facet dead, reporting whether this call was the first.
// (An edge can be condemned twice — replaced through one ridge and buried
// through the other — so counters only fire on the first kill.)
func (f *Facet) kill() bool { return !f.dead.Swap(true) }

// String formats the edge as "A->B".
func (f *Facet) String() string { return fmt.Sprintf("%d->%d", f.A, f.B) }

// Stats aggregates the instrumentation of one hull construction; see
// hullstats.Stats for field semantics.
type Stats = hullstats.Stats

// Result is the output of a hull construction. It is valid until the next
// construction on the same Reuse.
type Result struct {
	// Vertices lists the hull vertex indices in counterclockwise order,
	// starting from the smallest index.
	Vertices []int32
	// Facets holds the surviving (alive) edges, in the same cyclic order.
	Facets []*Facet
	// HullSizes (sequential engine only) records |T(Y_i)| — the hull size
	// after each insertion step — used to evaluate the Theorem 3.1 bound.
	HullSizes []int
	Stats     Stats

	ru *Reuse
}

// Created lists every facet ever created, in creation order (sequential
// engine) or an arbitrary order (parallel engines): the walk of the
// construction's arenas, which are the only record of them. The list is made
// on each call, sized once from the arenas' facet counts, so a construction
// nobody asks pays for none. It compares the facet sets across engines and
// exports the dependence graph.
func (r *Result) Created() []*Facet { return r.ru.Created() }

// EdgeSet returns the multiset of created edges as canonical [2]int32 pairs
// (A, B as created, which is deterministic) mapped to multiplicity.
func (r *Result) EdgeSet() map[[2]int32]int {
	created := r.Created()
	m := make(map[[2]int32]int, len(created))
	for _, f := range created {
		m[[2]int32{f.A, f.B}]++
	}
	return m
}

// engine carries the state shared by all three schedules.
type engine struct {
	pts      []geom.Point     // original points (exact-predicate path)
	store    *geom.PointStore // flat coordinates (plane-cache fast path)
	base     int              // number of initial hull points (>= 3)
	grain    int              // conflict-filter parallel grain (0 = default)
	planeEps float64          // static certification threshold; 0 = cache off
	rec      *hullstats.Recorder
	inj      *faultinject.Injector // batch-scan fault site (nil in production)

	// ridgeIDs backs allocation-free conmap keys for the concurrent
	// engines: ridgeIDs[v:v+1] is the canonical id slice of ridge {v}.
	// Filled by initRidgeIDs when a conmap table is installed, and kept
	// (grow-only) by an engine a Reuse owns.
	ridgeIDs []int32

	trace   *Trace // optional (rounds engine)
	traceMu sync.Mutex

	// ru is the Reuse that holds this engine; initialHull, collectResult,
	// and the vertex-slot table draw their arena and buffers from it.
	ru *Reuse
}

// initRidgeIDs prepares the backing array for key1 (concurrent engines). The
// array is the identity over point indices, so one that already covers every
// point serves again unchanged; it is remade only when the cloud grows.
func (e *engine) initRidgeIDs() {
	if len(e.ridgeIDs) >= len(e.pts) {
		return
	}
	e.ridgeIDs = make([]int32, len(e.pts))
	for i := range e.ridgeIDs {
		e.ridgeIDs[i] = int32(i)
	}
}

// key1 returns the conmap key of ridge {v} without allocating.
func (e *engine) key1(v int32) conmap.Key {
	return conmap.MakeKey(e.ridgeIDs[v : v+1 : v+1])
}

// initPlane writes f's endpoints and, with the line cache on, its line into
// the arena's plane slot, which it returns; the slot stays valid until the
// arena's next initPlane. The line is stored folded: N = (b_y - a_y,
// a_x - b_x), the exact negation of the Orient2D cofactor normal, so
// sign(N·p - off) = -Orient2D(A, B, p) outside the static threshold —
// positive certifies visible. IEEE negation is exact (b-a == -(a-b) bit for
// bit, and the offset's negated products sum to the negated offset), so
// folding changes no classification relative to evaluating the unfolded
// line and flipping.
func (e *engine) initPlane(a *arena, f *Facet) *eng.PlaneSlot {
	s := a.Slot()
	s.VP = append(s.VP[:0], e.pts[f.A], e.pts[f.B])
	if e.planeEps > 0 {
		pa, pb := e.store.Row(f.A), e.store.Row(f.B)
		s.N[0], s.N[1] = pb[1]-pa[1], pa[0]-pb[0]
		s.Off = s.N[0]*pa[0] + s.N[1]*pa[1]
	}
	return s
}

// newFacet builds the facet joining ridge r (a vertex index) with pivot p,
// supported by the pair (t1, t2): t1 is the facet being replaced (p visible
// from it), t2 the surviving neighbor. Orientation follows the CCW hull:
// if r is t1's tail the new edge is r->p, otherwise p->r. The facet and its
// conflict list come from the arena.
func (e *engine) newFacet(a *arena, r, p int32, t1, t2 *Facet) *Facet {
	f := a.Facet()
	if r == t1.A {
		f.A, f.B = r, p
	} else {
		f.A, f.B = p, r
	}
	f.Depth = 1 + max(t1.Depth, t2.Depth)
	// Line 16 of Algorithm 3 (and line 9 of Algorithm 2), with this kernel's
	// exact visibility predicate for the new edge as the filter: merge and
	// classification in one pass, serially through the arena's scratch below
	// the grain, and the result compacted into the arena.
	f.Conf = conflict.MergeFilterFused(&a.Scratch, t1.Conf, t2.Conf, p, e.filter(e.initPlane(a, f)), e.grain, a.Alloc)
	return f
}

// initialHull validates the base polygon (the first e.base points, which
// must be in convex position) and returns its CCW edges with conflict lists
// over the remaining points. For base == 3 any non-degenerate triangle is
// reoriented to CCW; for larger bases (used by the Figure 1 driver) the
// points must already be listed in CCW convex position.
func (e *engine) initialHull() ([]*Facet, error) {
	n := len(e.pts)
	if n < 3 || e.base < 3 || e.base > n {
		return nil, ErrDegenerate
	}
	// Base-polygon scratch, edges, and conflict lists come from the Reuse
	// and its own arena — the initial conflict lists are the largest slices
	// of the whole run.
	ru := e.ru
	a := &ru.Arena
	if cap(ru.order) < e.base {
		ru.order = make([]int32, e.base)
	}
	order := ru.order[:e.base]
	for i := range order {
		order[i] = int32(i)
	}
	if e.base == 3 {
		switch geom.Orient2D(e.pts[0], e.pts[1], e.pts[2]) {
		case 0:
			return nil, ErrDegenerate
		case -1:
			order[1], order[2] = order[2], order[1]
		}
	} else {
		// Validate convex CCW position.
		for i := 0; i < e.base; i++ {
			a := e.pts[order[i]]
			b := e.pts[order[(i+1)%e.base]]
			c := e.pts[order[(i+2)%e.base]]
			if geom.Orient2D(a, b, c) <= 0 {
				return nil, fmt.Errorf("%w: initial polygon not strictly convex CCW at vertex %d", ErrDegenerate, (i+1)%e.base)
			}
		}
	}
	// One edge at a time, in polygon order: make it and build its conflict
	// list over the remaining points while its line is the slot's — one pass
	// per edge, so each list comes out in ascending index order (parallel
	// chunks for large n).
	facets := ru.inits[:0]
	for i := 0; i < e.base; i++ {
		f := a.Facet()
		f.A, f.B = order[i], order[(i+1)%e.base]
		f.Conf = conflict.BuildFilterInto(int32(e.base), int32(n), e.filter(e.initPlane(a, f)), e.grain, a.Alloc)
		facets = append(facets, f)
	}
	ru.inits = facets
	return facets, nil
}

// collectResult reads the construction back from its arenas: one walk of the
// scaffold (engine.Reuse.Walk) tallies every created facet by depth and
// hands it here, where the alive edges are linked by their tails; then the
// alive edges must form one closed CCW cycle. The result carries the round
// widths of Rounds and the hull sizes of Seq (nil under the other
// schedules).
func (e *engine) collectResult(widths, sizes []int) (*Result, error) {
	ru := e.ru
	if cap(ru.next) < len(e.pts) {
		ru.next = make([]*Facet, len(e.pts))
	}
	next := ru.next[:len(e.pts)]
	ru.next = next
	clear(next)
	var start int32 = math.MaxInt32
	alive := 0
	var err error
	ru.Walk(func(f *Facet) int32 { return f.Depth }, func(slab []Facet) {
		for i := range slab {
			f := &slab[i]
			if !f.Alive() || err != nil {
				continue
			}
			if next[f.A] != nil {
				err = fmt.Errorf("hull2d: two alive edges leave vertex %d", f.A)
				continue
			}
			alive++
			next[f.A] = f
			start = min(start, f.A)
		}
	})
	if err != nil {
		return nil, err
	}
	if alive < 3 {
		return nil, fmt.Errorf("hull2d: only %d alive edges", alive)
	}
	ru.res = Result{Facets: ru.facets[:0], Vertices: ru.vertices[:0], HullSizes: sizes, ru: ru}
	res := &ru.res
	at := start
	for steps := 0; steps < alive; steps++ {
		f := next[at]
		if f == nil {
			return nil, fmt.Errorf("hull2d: alive edges do not form a cycle (stuck at %d)", at)
		}
		next[at] = nil // consume, so a revisit is caught as a hole
		res.Vertices = append(res.Vertices, f.A)
		res.Facets = append(res.Facets, f)
		at = f.B
	}
	if at != start {
		return nil, fmt.Errorf("hull2d: alive edges form a path or multiple cycles, not one cycle")
	}
	res.Stats = ru.Snapshot(len(widths), alive)
	res.Stats.RoundWidths = widths
	// Capture the (possibly regrown) backings so the next construction
	// reuses them at full capacity.
	ru.facets = res.Facets
	ru.vertices = res.Vertices
	return res, nil
}

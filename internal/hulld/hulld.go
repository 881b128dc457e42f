// Package hulld implements randomized incremental convex hull in arbitrary
// constant dimension d >= 2: the sequential Algorithm 2 and the parallel
// Algorithm 3 of the paper, with the same two schedules as package hull2d
// (asynchronous fork-join, and round-synchronous for Theorem 5.3/5.4
// measurements).
//
// A facet is an oriented d-simplex identified by its d defining point
// indices (sorted); a ridge is a (d-1)-subset of a facet shared with exactly
// one neighbor; visibility is decided against an interior reference point
// (the centroid of the initial simplex, which remains strictly inside every
// prefix hull). Points must be in general position: no d+1 points on a
// common hyperplane among those touching the hull (Section 6's corner
// configuration space, in package corner, lifts this restriction for 3D).
//
// All three schedules (Seq, Par, Rounds) take (pts, *Options), and one
// Reuse carries the retained state of every schedule across constructions.
//
// Lifted mode (Options.Lift) runs 2D Delaunay triangulation as
// the lower hull of the points lifted onto the paraboloid z = x²+y² at d=3:
// the float lifts feed the plane filter, while visibility and facet
// orientation are decided exactly on the 2D points (geom.InCircle,
// geom.Orient2D), so the inexact lift never reaches an exact decision.
// Package delaunay is the caller; DESIGN.md §4.6 has the details.
//
// Visibility hot path: a new facet's hyperplane (a plain-float cofactor
// normal and offset; see geom.NewFacetPlane) is computed once, into the
// creating worker's plane slot (engine.PlaneSlot), and lives there only
// while the facet's own conflict list is filtered — the one read Algorithm
// 3 makes of it — so a retained Facet holds no geometry beyond its vertex
// ids. Coordinates live in a flat geom.PointStore, and one static
// certification threshold for the whole cloud (geom.StaticFilterEps) is
// computed per construction, so a test is a d-term strided dot product plus
// a comparison. Only when the plane cannot certify the sign does the engine
// fall back to the exact OrientSimplex predicate — the combinatorial output
// is bit-identical to the pure determinant path (Options.NoPlaneCache, kept
// for the A2 ablation; also used automatically for d > geom.MaxPlaneDim
// where cofactor expansion stops paying off). The batch scan over those
// planes is the shared conflict.PlaneFilter, the same scan hull2d runs: this
// kernel supplies the slot's folded plane as a stride-d row and
// OrientSimplex as the exact predicate (filter.go).
package hulld

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"parhull/internal/conflict"
	eng "parhull/internal/engine"
	"parhull/internal/facetlog"
	"parhull/internal/faultinject"
	"parhull/internal/geom"
	"parhull/internal/hullstats"
	"parhull/internal/sched"
)

// ErrDegenerate is returned when the input violates general position in a
// way the engine detects (an affinely dependent base simplex or one too thin
// to hold its float centroid, or a created facet whose plane passes through
// the interior reference point).
var ErrDegenerate = errors.New("hulld: degenerate input (points not in general position)")

// noPivot is the driver's empty-conflict-set sentinel.
const noPivot = eng.NoPivot

// arena is this kernel's per-worker allocator: the generic bump arena
// instantiated at the d-dimensional facet type. Verts, ridges, and conflict
// lists all carve from its int32 blocks on the work-stealing path.
type arena = eng.Arena[Facet]

// kernel adapts the d-dimensional geometry to the generic Algorithm-3 driver
// in internal/engine: facets are oriented d-simplices, a ridge is a sorted
// (d-1)-subset, and a new facet has d-1 fresh ridges — those containing the
// pivot.
type kernel struct{ e *engine }

// Pivot implements engine.Kernel.
func (k kernel) Pivot(f *Facet) int32 { return f.pivot() }

// NewFacet implements engine.Kernel.
func (k kernel) NewFacet(a *arena, r []int32, p int32, t1, t2 *Facet) (*Facet, error) {
	return k.e.newFacet(a, r, p, t1, t2)
}

// FreshRidges implements engine.Kernel: the fresh ridges of t are the d-1
// ridges omitting one vertex of r each — exactly the ridges containing the
// pivot. The ridge slices are published into the table, so they carve from
// the arena (heap when a is nil). The d == 3 case carves both 2-vertex
// ridges from one block reservation and fills them by direct index — the
// ridge slices are immutable once published, so sharing a backing array is
// safe.
func (k kernel) FreshRidges(a *arena, t *Facet, r []int32, buf [][]int32) [][]int32 {
	if len(r) == 2 {
		s := a.IntsLen(4)
		v0, v1, v2 := t.Verts[0], t.Verts[1], t.Verts[2]
		r0, r1 := s[0:2:2], s[2:4:4]
		fillRidge3(r0, v0, v1, v2, r[0])
		fillRidge3(r1, v0, v1, v2, r[1])
		return append(buf, r0, r1)
	}
	for _, q := range r {
		buf = append(buf, ridgeWithoutIn(a, t, q))
	}
	return buf
}

// fillRidge3 writes the two of (v0, v1, v2) that are not q into dst, in
// order — the d == 3 ridge omitting q.
func fillRidge3(dst []int32, v0, v1, v2, q int32) {
	switch q {
	case v0:
		dst[0], dst[1] = v1, v2
	case v1:
		dst[0], dst[1] = v0, v2
	default:
		dst[0], dst[1] = v0, v1
	}
}

// Kill implements engine.Kernel.
func (k kernel) Kill(f *Facet) bool { return f.kill() }

// Facet is an oriented d-simplex of the hull. Immutable after creation
// except for the liveness flag. It holds no geometry beyond its vertex ids:
// its hyperplane lives in the creating worker's plane slot
// (engine.PlaneSlot) only while its own conflict list is filtered, which is
// the one read Algorithm 3 makes of it.
type Facet struct {
	// Verts holds the d defining point indices, sorted ascending.
	Verts []int32
	// Conf is the conflict set: indices of points strictly outside, in
	// ascending insertion order.
	Conf []int32
	// Depth is the configuration-dependence-graph depth (Definition 4.1).
	Depth int32

	// mark is scratch for the sequential engine's per-insertion visible-set
	// membership (holds the insertion index; never touched concurrently).
	mark int32
	dead atomic.Bool
}

func (f *Facet) pivot() int32 {
	if len(f.Conf) == 0 {
		return noPivot
	}
	return f.Conf[0]
}

// Alive reports whether the facet is still part of the hull.
func (f *Facet) Alive() bool { return !f.dead.Load() }

func (f *Facet) kill() bool { return !f.dead.Swap(true) }

// String formats the facet's vertex indices.
func (f *Facet) String() string { return fmt.Sprint(f.Verts) }

// Key returns the canonical identity of the facet (its sorted vertex tuple)
// for cross-engine comparisons.
func (f *Facet) Key() string { return ridgeString(f.Verts) }

// Stats aggregates instrumentation; see hullstats.Stats.
type Stats = hullstats.Stats

// Result is the output of a hull construction.
type Result struct {
	// Facets holds the surviving facets of the hull.
	Facets []*Facet
	// Vertices holds the sorted indices of points on the hull.
	Vertices []int32
	// Created holds every facet ever created, in creation order (Seq) or
	// an arbitrary order (Par, Rounds).
	Created []*Facet
	// HullSizes (sequential engine only) records the facet count of the
	// hull after each insertion step, for the Theorem 3.1 bound.
	HullSizes []int
	Stats     Stats
}

// FacetSet returns the multiset of created facets keyed by sorted vertex
// tuple.
func (r *Result) FacetSet() map[string]int {
	m := make(map[string]int, len(r.Created))
	for _, f := range r.Created {
		m[f.Key()]++
	}
	return m
}

// ridgeMapKey is a comparable ridge key for the sequential engine's
// adjacency map. Ridges of up to 8 indices pack into a fixed array (padded
// with -1, which no point index can collide with) so key construction
// allocates nothing and hashing is a flat memory compare; longer ridges fall
// back to the string encoding.
type ridgeMapKey struct {
	arr [8]int32
	str string
}

// ridgeKeyOmit builds the map key of the ridge verts-minus-verts[omit].
func ridgeKeyOmit(verts []int32, omit int) ridgeMapKey {
	var k ridgeMapKey
	if len(verts)-1 <= len(k.arr) {
		i := 0
		for j, v := range verts {
			if j != omit {
				k.arr[i] = v
				i++
			}
		}
		for ; i < len(k.arr); i++ {
			k.arr[i] = -1
		}
		return k
	}
	r := make([]int32, 0, len(verts)-1)
	for j, v := range verts {
		if j != omit {
			r = append(r, v)
		}
	}
	k.str = ridgeString(r)
	return k
}

// ridgeString encodes sorted indices as a compact map key.
func ridgeString(ids []int32) string {
	b := make([]byte, 4*len(ids))
	for i, v := range ids {
		u := uint32(v)
		b[4*i] = byte(u)
		b[4*i+1] = byte(u >> 8)
		b[4*i+2] = byte(u >> 16)
		b[4*i+3] = byte(u >> 24)
	}
	return string(b)
}

type engine struct {
	pts   []geom.Point     // original points (exact-predicate path)
	store *geom.PointStore // flat coordinates (plane-cache fast path)
	d     int
	grain int // conflict-filter parallel grain (0 = default)
	// planeEps is the static certification threshold (0 = cache off). In
	// lifted mode it is the scale-free coefficient that liftedInside
	// multiplies by per-axis maxima into each facet's own threshold.
	planeEps float64
	interior geom.Point
	// lift holds the 2D points pts lifts in lifted mode (nil otherwise), and
	// liftMax the per-axis maximum absolute coordinate of the lifts of
	// pts[d:], every point a facet is tested against.
	lift    []geom.Point
	liftMax [3]float64
	rec     *hullstats.Recorder
	inj     *faultinject.Injector // batch-scan fault site (nil in production)

	log *facetlog.Log[*Facet] // every facet ever created

	// ru is the Reuse that owns this engine (nil on the one-shot Par and
	// Rounds); initialHull and collectResult draw their arena and buffers
	// from it.
	ru *Reuse
}

// newEngine assembles engine state. stripes sizes the facet log (1 keeps
// Result.Created in creation order; the parallel engines stripe by worker
// count so record() does not serialize). A non-nil lift selects lifted mode.
func newEngine(pts, lift []geom.Point, d int, counters bool, grain, stripes int, noPlane bool) *engine {
	e := &engine{
		pts:   pts,
		store: geom.NewPointStore(pts),
		d:     d,
		grain: grain,
		lift:  lift,
		rec:   hullstats.NewRecorder(counters),
		log:   facetlog.New[*Facet](stripes),
	}
	e.setPlaneEps(noPlane)
	e.rec.MarkHeapBase()
	return e
}

// liftFloor floors liftMax, so that a lifted threshold also covers the
// absolute rounding of subnormal lift coordinates (an underflowed square, or
// a coordinate that a scaled-down lift pushed below 2^-1022), which the
// relative error analysis of geom.StaticFilterEps does not model. It
// changes no threshold unless every input lift is below 2^-1000 on some
// axis.
const liftFloor = 0x1p-1000

// setPlaneEps sets the certification threshold of this construction. A
// plain hull takes one static threshold for the whole cloud. A lifted one
// cannot: its bounding vertices sit thousands of times farther out than the
// input, and the lift squares that ratio, so a cloud-wide bound would
// certify almost nothing. It keeps twice the scale-free coefficient (the
// factor 2 absorbs the rounding of the float lift itself), and each facet
// multiplies in the per-axis maxima over its own lifts and liftMax.
func (e *engine) setPlaneEps(noPlane bool) {
	e.planeEps = 0
	switch {
	case noPlane:
	case e.lift != nil:
		e.planeEps = 2 * geom.StaticFilterEps([]float64{1, 1, 1})
		e.liftMax = [3]float64{liftFloor, liftFloor, liftFloor}
		for _, p := range e.pts[e.d:] {
			for j, x := range p {
				e.liftMax[j] = max(e.liftMax[j], math.Abs(x))
			}
		}
	default:
		e.planeEps = geom.StaticFilterEps(e.store.MaxAbs())
	}
	e.rec.SetPlaneCache(e.planeEps > 0)
}

// facetPoints returns the vertex coordinates of the facet in slot s: the
// slot's own copy without a plane cache, and a reconstruction in buf
// otherwise (rare exact fallbacks through a plane-cached facet, whose d is
// at most geom.MaxPlaneDim).
func (e *engine) facetPoints(s *eng.PlaneSlot, buf *[geom.MaxPlaneDim]geom.Point) []geom.Point {
	if e.planeEps == 0 {
		return s.VP
	}
	vp := buf[:len(s.Verts)]
	for i, v := range s.Verts {
		vp[i] = e.pts[v]
	}
	return vp
}

// exactVisible is the exact visibility predicate with no counting — the
// batch filters' exact path and uncertain-sidecar resolution (both count
// before calling it) — for the facet in slot s. In lifted mode OrientSimplex
// of the lifts is -InCircle of the 2D points, which is evaluated instead.
func (e *engine) exactVisible(v int32, s *eng.PlaneSlot) bool {
	if e.lift != nil {
		w := s.Verts
		return -geom.InCircle(e.lift[w[0]], e.lift[w[1]], e.lift[w[2]], e.lift[v]) == s.Sign
	}
	var buf [geom.MaxPlaneDim]geom.Point
	return geom.OrientSimplex(e.facetPoints(s, &buf), e.pts[v]) == s.Sign
}

func (e *engine) record(f *Facet) {
	e.rec.Created(f.Depth)
	k := uint32(0)
	for _, v := range f.Verts {
		k = k*31 + uint32(v)
	}
	e.log.Append(k, f)
}

// makeFacet assembles a facet from sorted vertex indices and writes its
// plane into the arena's plane slot, which it returns: the cached hyperplane
// (in plain mode, and in lifted mode under the facet's own threshold), the
// outward sign from the interior reference point, the vertex ids, and,
// without a plane cache, the vertex coordinates. A zero sign means the
// simplex is degenerate or its plane passes through the reference point —
// both general-position violations. The facet struct comes from the worker
// arena when one is supplied (work-stealing path). The slot stays valid
// until the arena's next makeFacet; each branch writes every field the
// filter reads, so the slot is never zeroed as a whole.
//
// The cached plane is stored folded — negated when the outward OrientSimplex
// sign is negative, so that Eval > Eps means visible on every read path.
// IEEE negation is exact, so every downstream classification (including
// which candidates fall in the uncertain band) is bit-identical to
// evaluating the unfolded plane and comparing against the sign; this is what
// keeps the sequential and parallel engines facet-identical.
func (e *engine) makeFacet(a *arena, verts []int32) (*Facet, *eng.PlaneSlot, error) {
	f := a.Facet()
	f.Verts = verts
	sl := a.Slot()
	var s int
	if e.lift != nil {
		s = e.liftedInside(sl, verts)
	} else if e.planeEps > 0 {
		// planeEps > 0 implies d <= geom.MaxPlaneDim, so the vertex slice
		// fits a stack buffer; neither NewFacetPlane nor OrientSimplex
		// retains it, keeping facet creation allocation-free beyond the
		// facet itself. The interior point is a convex combination of input
		// points, so its coordinates are bounded by the store's per-dimension
		// maxima and the static certificate applies to it as well.
		var buf [geom.MaxPlaneDim]geom.Point
		vp := buf[:len(verts)]
		for i, v := range verts {
			vp[i] = e.pts[v]
		}
		sl.Plane = geom.NewFacetPlane(vp, e.planeEps)
		cs, ok := sl.CertifiedSign(e.interior)
		if !ok {
			cs = geom.OrientSimplex(vp, e.interior)
		}
		s = cs
	} else {
		sl.Plane = geom.Plane{}
		sl.VP = sl.VP[:0]
		for _, v := range verts {
			sl.VP = append(sl.VP, e.pts[v])
		}
		s = geom.OrientSimplex(sl.VP, e.interior)
	}
	if s == 0 {
		if e.lift != nil {
			return nil, nil, fmt.Errorf("%w: facet %v projects to a collinear triangle", ErrDegenerate, verts)
		}
		return nil, nil, fmt.Errorf("%w: facet %v is coplanar with the interior point", ErrDegenerate, verts)
	}
	sl.Sign = -s
	sl.Verts = verts
	if sl.Valid() && sl.Sign < 0 {
		for j := range sl.N {
			sl.N[j] = -sl.N[j]
		}
		sl.Off = -sl.Off
	}
	return f, sl, nil
}

// liftedInside writes the plane of the facet on verts into sl in lifted
// mode and returns the sign OrientSimplex gives the facet's inside, decided
// exactly on the 2D points. Every lift after the base's first three lies
// strictly below the plane of those three (the caller's bounding triangle),
// so their facet is the one upper facet, with its inside down. Every other
// facet is a lower one with its inside up, and OrientSimplex of a point
// straight above a facet is Orient2D of the facet's projection. The plane's
// threshold is planeEps times the per-axis maxima over the facet's lifts and
// liftMax; a facet whose threshold overflows stays on the exact predicate.
func (e *engine) liftedInside(sl *eng.PlaneSlot, v []int32) int {
	s := geom.Orient2D(e.lift[v[0]], e.lift[v[1]], e.lift[v[2]])
	if v[2] < 3 {
		s = -s
	}
	if e.planeEps > 0 {
		vp := [3]geom.Point{e.pts[v[0]], e.pts[v[1]], e.pts[v[2]]}
		eps := e.planeEps
		for j, m := range e.liftMax {
			eps *= max(m, math.Abs(vp[0][j]), math.Abs(vp[1][j]), math.Abs(vp[2][j]))
		}
		if !math.IsInf(eps, 0) {
			sl.Plane = geom.NewFacetPlane(vp[:], eps)
			return s
		}
	}
	sl.Plane = geom.Plane{}
	return s
}

// newFacet builds the facet joining ridge r with pivot p, supported by
// (t1, t2), filtering the conflict list per line 16 of Algorithm 3. With a
// worker arena the facet, its Verts, and its conflict list all come from
// per-worker blocks (nil a = heap, used by the other schedules).
func (e *engine) newFacet(a *arena, r []int32, p int32, t1, t2 *Facet) (*Facet, error) {
	var verts []int32
	if len(r) == 2 {
		// d == 3: place the pivot into the sorted 2-vertex ridge by direct
		// index instead of the general insertion loop.
		verts = a.IntsLen(3)
		switch {
		case p < r[0]:
			verts[0], verts[1], verts[2] = p, r[0], r[1]
		case p < r[1]:
			verts[0], verts[1], verts[2] = r[0], p, r[1]
		default:
			verts[0], verts[1], verts[2] = r[0], r[1], p
		}
	} else {
		verts = a.Ints(len(r) + 1)
		ins := false
		for _, v := range r {
			if !ins && p < v {
				verts = append(verts, p)
				ins = true
			}
			verts = append(verts, v)
		}
		if !ins {
			verts = append(verts, p)
		}
	}
	f, sl, err := e.makeFacet(a, verts)
	if err != nil {
		return nil, err
	}
	f.Depth = 1 + max32(t1.Depth, t2.Depth)
	f.Conf = e.mergeFilter(a, t1.Conf, t2.Conf, p, sl)
	e.record(f)
	return f, nil
}

// mergeFilter merges the two ascending conflict lists, drops p, and keeps
// the points visible from the facet in slot sl, through the driver's shared
// grain/arena discipline (engine.MergeFilterFused): merge and classification
// in one pass, never materializing the candidate run.
func (e *engine) mergeFilter(a *arena, c1, c2 []int32, p int32, sl *eng.PlaneSlot) []int32 {
	return eng.MergeFilterFused(a, c1, c2, p, e.filter(sl), e.grain)
}

func max32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}

// initialHull builds the simplex on the first d+1 points and the conflict
// lists of its d+1 facets over the remaining points. The float centroid of a
// thin base can round outside it, which would make it a false interior
// point, so each base facet must hold its opposite vertex strictly inside,
// by the exact predicate. A lifted base is the bounding triangle and the
// first point inside it. That point must lie strictly inside the triangle's
// circle, and so must every later one: the upper facet's conflict list must
// be empty.
func (e *engine) initialHull() ([]*Facet, error) {
	n := len(e.pts)
	d := e.d
	if n < d+1 {
		return nil, fmt.Errorf("%w: need at least d+1 = %d points, got %d", ErrDegenerate, d+1, n)
	}
	// The base-simplex facets, their vertex tuples, and their conflict lists
	// come from the retained arena when the engine has an owner — the
	// initial conflict lists are the largest slices of the whole run, so
	// recycling them matters as much as the per-facet arena discipline.
	var (
		a      *arena
		alloc  func(int) []int32
		base   []geom.Point
		facets []*Facet
	)
	if ru := e.ru; ru != nil {
		a = ru.arena
		alloc = a.Alloc
		if cap(ru.base) < d+1 {
			ru.base = make([]geom.Point, d+1)
		}
		base = ru.base[:d+1]
		facets = ru.inits[:0]
	} else {
		base = make([]geom.Point, d+1)
		facets = make([]*Facet, 0, d+1)
	}
	for i := range base {
		base[i] = e.pts[i]
	}
	if l := e.lift; l != nil {
		if geom.InCircle(l[0], l[1], l[2], l[3])*geom.Orient2D(l[0], l[1], l[2]) <= 0 {
			return nil, fmt.Errorf("%w: point 3 escapes the circle of points 0-2", ErrDegenerate)
		}
	} else {
		if geom.OrientSimplex(base[:d], base[d]) == 0 {
			return nil, fmt.Errorf("%w: first %d points are affinely dependent", ErrDegenerate, d+1)
		}
		e.interior = geom.Centroid(base)
	}

	// One base facet at a time: make it, check it, and filter its conflict
	// list while its plane is the slot's. Recording is a separate pass, so
	// the facet log holds the base in omit order. The vertex tuples share
	// one carve, made before any conflict list, so those large carves do
	// not each cut a fresh int32 block short.
	tuples := a.IntsLen((d + 1) * d)
	for omit := 0; omit <= d; omit++ {
		verts := tuples[omit*d : omit*d : (omit+1)*d]
		for i := 0; i <= d; i++ {
			if i != omit {
				verts = append(verts, int32(i))
			}
		}
		f, sl, err := e.makeFacet(a, verts)
		if err != nil {
			return nil, err
		}
		if e.lift == nil && e.exactVisible(int32(omit), sl) {
			return nil, fmt.Errorf("%w: the float centroid of the first %d points lies outside them", ErrDegenerate, d+1)
		}
		f.Conf = conflict.BuildFilterInto(int32(d+1), int32(n), e.filter(sl), e.grain, alloc)
		facets = append(facets, f)
	}
	if e.ru != nil {
		e.ru.inits = facets
	}
	for _, f := range facets {
		e.record(f)
	}
	if up := facets[d]; e.lift != nil && len(up.Conf) > 0 {
		return nil, fmt.Errorf("%w: point %d escapes the circle of points 0-2", ErrDegenerate, up.Conf[0])
	}
	return facets, nil
}

// ridgeWithout returns the ridge of f that omits vertex q.
func ridgeWithout(f *Facet, q int32) []int32 { return ridgeWithoutIn(nil, f, q) }

// ridgeWithoutIn is ridgeWithout carving the ridge slice from the worker
// arena when one is supplied.
func ridgeWithoutIn(a *arena, f *Facet, q int32) []int32 {
	r := a.Ints(len(f.Verts) - 1)
	for _, v := range f.Verts {
		if v != q {
			r = append(r, v)
		}
	}
	return r
}

// collectResult gathers alive facets and validates the closed-pseudomanifold
// property (checkClosed).
func (e *engine) collectResult(rounds int) (*Result, error) {
	e.rec.SampleHeap()
	ru := e.ru
	var res *Result
	if ru != nil {
		ru.created = e.log.SnapshotInto(ru.created[:0])
		ru.res = Result{Created: ru.created, Facets: ru.facets[:0], Vertices: ru.vertices[:0]}
		res = &ru.res
	} else {
		res = &Result{Created: e.log.Snapshot()}
	}
	for _, f := range res.Created {
		if f.Alive() {
			res.Facets = append(res.Facets, f)
		}
	}
	if len(res.Facets) < e.d+1 {
		return nil, fmt.Errorf("hulld: only %d alive facets (want >= %d)", len(res.Facets), e.d+1)
	}
	var c *closure
	var inHull []bool
	if ru != nil {
		c = &ru.closure
		if cap(ru.inHull) < len(e.pts) {
			ru.inHull = make([]bool, len(e.pts))
		}
		inHull = ru.inHull[:len(e.pts)]
		ru.inHull = inHull
		clear(inHull)
	} else {
		c = new(closure)
		inHull = make([]bool, len(e.pts))
	}
	if err := checkClosed(res.Facets, len(e.pts), e.d, c); err != nil {
		return nil, err
	}
	for _, f := range res.Facets {
		for _, v := range f.Verts {
			inHull[v] = true
		}
	}
	for v, on := range inHull {
		if on {
			res.Vertices = append(res.Vertices, int32(v))
		}
	}
	res.Stats = e.rec.Snapshot(rounds, len(res.Facets))
	if ru != nil {
		// Capture the (possibly regrown) backings so the next construction
		// reuses them at full capacity.
		ru.facets = res.Facets
		ru.vertices = res.Vertices
	}
	return res, nil
}

// closure is the grow-only scratch of checkClosed.
type closure struct {
	start  []int32 // per point: offset of the bucket of ridges it is the smallest vertex of
	rows   []int32 // every alive ridge, d-1 indices a row, grouped by bucket
	sorter rowSorter
}

// checkClosed verifies the closed-pseudomanifold property of the alive
// facets of a d-dimensional hull over n points: every ridge of an alive
// facet is shared by exactly two of them. A counting sort files each ridge
// under its smallest vertex — the facet's first vertex, or its second for
// the ridge that omits the first — and a sort of each small bucket then
// brings equal ridges together, so the check costs O(F·d) plus the bucket
// sorts, with no hashing. The first ridge, in that order, not shared by
// exactly two facets is reported.
func checkClosed(facets []*Facet, n, d int, c *closure) error {
	w := d - 1
	if cap(c.start) < n {
		c.start = make([]int32, n)
	}
	start := c.start[:n]
	clear(start)
	if need := len(facets) * d * w; cap(c.rows) < need {
		c.rows = make([]int32, need)
	}
	rows := c.rows[:len(facets)*d*w]

	for _, f := range facets {
		start[f.Verts[0]] += int32(w)
		start[f.Verts[1]]++
	}
	var sum int32
	for v, k := range start {
		start[v] = sum
		sum += k
	}
	for _, f := range facets {
		vs := f.Verts
		for omit := range vs {
			first := vs[0]
			if omit == 0 {
				first = vs[1]
			}
			p := int(start[first]) * w
			start[first]++
			row := rows[p : p+w]
			j := 0
			for q, v := range vs {
				if q != omit {
					row[j] = v
					j++
				}
			}
		}
	}
	// start[v] now ends bucket v, which begins where bucket v-1 ends.
	lo := 0
	for _, hi := range start {
		if int(hi) > lo {
			if err := c.checkBucket(rows[lo*w:int(hi)*w], w); err != nil {
				return err
			}
		}
		lo = int(hi)
	}
	return nil
}

// checkBucket sorts one bucket's ridge rows (all starting with the same
// vertex) and requires every distinct row to occur exactly twice.
func (c *closure) checkBucket(b []int32, w int) error {
	s := &c.sorter
	*s = rowSorter{rows: b, w: w}
	sort.Sort(s)
	k := s.Len()
	for i := 0; i < k; {
		j := i + 1
		for j < k && !s.Less(i, j) {
			j++
		}
		if j-i != 2 {
			return fmt.Errorf("hulld: ridge %v shared by %d alive facets, want 2", b[i*w:(i+1)*w], j-i)
		}
		i = j
	}
	return nil
}

// rowSorter orders the width-w ridge rows of one bucket lexicographically.
// Column 0 is the bucket's vertex, shared by every row, so it is skipped.
type rowSorter struct {
	rows []int32
	w    int
}

func (s *rowSorter) Len() int { return len(s.rows) / s.w }

func (s *rowSorter) Less(i, j int) bool {
	a, b := s.rows[i*s.w:(i+1)*s.w], s.rows[j*s.w:(j+1)*s.w]
	for q := 1; q < s.w; q++ {
		if a[q] != b[q] {
			return a[q] < b[q]
		}
	}
	return false
}

func (s *rowSorter) Swap(i, j int) {
	a, b := s.rows[i*s.w:(i+1)*s.w], s.rows[j*s.w:(j+1)*s.w]
	for q := range a {
		a[q], b[q] = b[q], a[q]
	}
}

// parStripes is the facet-log stripe count for the concurrent engines.
func parStripes() int { return 4 * sched.Workers() }

// validate checks the cloud and, in lifted mode, that pts are 3D lifts of
// as many 2D points, and returns the dimension.
func validate(pts, lift []geom.Point) (int, error) {
	if len(pts) == 0 {
		return 0, fmt.Errorf("%w: empty input", ErrDegenerate)
	}
	d := len(pts[0])
	if err := geom.ValidateCloud(pts, d); err != nil {
		return 0, err
	}
	if lift != nil && (d != 3 || len(lift) != len(pts)) {
		return 0, fmt.Errorf("%w: %d points of dimension %d lift %d 2D points", geom.ErrBadDimension, len(pts), d, len(lift))
	}
	return d, nil
}

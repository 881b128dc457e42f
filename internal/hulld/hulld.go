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
// Visibility hot path: each facet caches its hyperplane (a plain-float
// cofactor normal and offset; see geom.NewFacetPlane), coordinates live in
// a flat geom.PointStore, and one static certification threshold for the
// whole cloud (geom.StaticFilterEps) is computed per construction, so a
// test is a d-term strided dot product plus a comparison. Only when the
// cached filter cannot certify the sign does the engine fall back to the
// exact OrientSimplex predicate — the combinatorial output is bit-identical
// to the pure determinant path (Options.NoPlaneCache, kept for the A2
// ablation; also used automatically for d > geom.MaxPlaneDim where cofactor
// expansion stops paying off).
package hulld

import (
	"errors"
	"fmt"
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
// way the engine detects (affinely dependent base simplex, or a created
// facet whose plane passes through the interior reference point).
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
func (k kernel) NewFacet(a *arena, r []int32, p int32, t1, t2 *Facet, round int32) (*Facet, error) {
	return k.e.newFacet(a, r, p, t1, t2, round)
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
// except for the liveness flag.
type Facet struct {
	// Verts holds the d defining point indices, sorted ascending.
	Verts []int32
	// Conf is the conflict set: indices of points strictly outside, in
	// ascending insertion order.
	Conf []int32
	// Depth is the configuration-dependence-graph depth (Definition 4.1).
	Depth int32
	// Round is the creation round (rounds engine only; 0 for the base).
	Round int32

	// plane caches the facet hyperplane for the filtered fast path, stored
	// folded: normal and offset are negated at creation when the outward
	// sign is negative, so Eval > Eps certifies visible and Eval < -Eps
	// certifies invisible with no per-test sign fixup. vp caches the vertex
	// coordinates only when the plane cache is absent (ablation mode,
	// d > geom.MaxPlaneDim, or a degenerate threshold) — with a valid
	// plane, exact fallbacks reconstruct them on demand. outSign is the
	// OrientSimplex sign that classifies a point as strictly outside (the
	// exact path is unaffected by folding).
	plane   geom.Plane
	vp      []geom.Point
	outSign int
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
	// Created holds every facet ever created.
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
// adjacency map and the result validator. Ridges of up to 8 indices pack
// into a fixed array (padded with -1, which no point index can collide
// with) so key construction allocates nothing and hashing is a flat memory
// compare; longer ridges fall back to the string encoding.
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
	pts      []geom.Point     // original points (exact-predicate path)
	store    *geom.PointStore // flat coordinates (plane-cache fast path)
	d        int
	grain    int     // conflict-filter parallel grain (0 = default)
	planeEps float64 // static certification threshold; 0 = cache off
	interior geom.Point
	rec      *hullstats.Recorder
	inj      *faultinject.Injector // batch-scan fault site (nil in production)

	log *facetlog.Log[*Facet] // every facet ever created

	// ru is the retained-state bundle when this engine is owned by a Reuse
	// or SeqReuse (nil on the one-shot paths); initialHull and collectResult
	// draw their arena and buffers from it.
	ru *retained
}

// newEngine assembles engine state. stripes sizes the facet log (1 keeps
// Result.Created in creation order; the parallel engines stripe by worker
// count so record() does not serialize).
func newEngine(pts []geom.Point, d int, counters bool, grain, stripes int, noPlane bool) *engine {
	e := &engine{
		pts:   pts,
		store: geom.NewPointStore(pts),
		d:     d,
		grain: grain,
		rec:   hullstats.NewRecorder(counters),
		log:   facetlog.New[*Facet](stripes),
	}
	if !noPlane {
		e.planeEps = geom.StaticFilterEps(e.store.MaxAbs())
	}
	e.rec.SetPlaneCache(e.planeEps > 0)
	e.rec.MarkHeapBase()
	return e
}

// facetPoints returns the vertex coordinates of f, using the cached slice
// when present (no plane cache) and reconstructing otherwise (rare exact
// fallbacks through a plane-cached facet).
func (e *engine) facetPoints(f *Facet) []geom.Point {
	if f.vp != nil {
		return f.vp
	}
	vp := make([]geom.Point, len(f.Verts))
	for i, v := range f.Verts {
		vp[i] = e.pts[v]
	}
	return vp
}

// exactVisible is the exact visibility predicate with no counting — the
// batch filters' exact path and uncertain-sidecar resolution (both count
// before calling it).
func (e *engine) exactVisible(v int32, f *Facet) bool {
	return geom.OrientSimplex(e.facetPoints(f), e.pts[v]) == f.outSign
}

func (e *engine) record(f *Facet) {
	e.rec.Created(f.Depth)
	k := uint32(0)
	for _, v := range f.Verts {
		k = k*31 + uint32(v)
	}
	e.log.Append(k, f)
}

// makeFacet assembles a facet from sorted vertex indices, computing its
// cached hyperplane and its outward sign from the interior reference point.
// A zero sign means the simplex is degenerate or its plane passes through
// the reference point — both general-position violations. The facet struct
// comes from the worker arena when one is supplied (work-stealing path).
//
// The cached plane is stored folded — negated when the outward OrientSimplex
// sign is negative, so that Eval > Eps means visible on every read path.
// IEEE negation is exact, so every downstream classification (including
// which candidates fall in the uncertain band) is bit-identical to
// evaluating the unfolded plane and comparing against outSign; this is what
// keeps the sequential and parallel engines facet-identical.
func (e *engine) makeFacet(a *arena, verts []int32) (*Facet, error) {
	f := a.Facet()
	f.Verts = verts
	var s int
	if e.planeEps > 0 {
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
		f.plane = geom.NewFacetPlane(vp, e.planeEps)
		cs, ok := f.plane.CertifiedSign(e.interior)
		if !ok {
			cs = geom.OrientSimplex(vp, e.interior)
		}
		s = cs
	} else {
		vp := make([]geom.Point, len(verts))
		for i, v := range verts {
			vp[i] = e.pts[v]
		}
		s = geom.OrientSimplex(vp, e.interior)
		f.vp = vp
	}
	if s == 0 {
		return nil, fmt.Errorf("%w: facet %v is coplanar with the interior point", ErrDegenerate, verts)
	}
	f.outSign = -s
	if f.plane.Valid() {
		if f.outSign < 0 {
			for j := range f.plane.N {
				f.plane.N[j] = -f.plane.N[j]
			}
			f.plane.Off = -f.plane.Off
		}
	}
	return f, nil
}

// newFacet builds the facet joining ridge r with pivot p, supported by
// (t1, t2), filtering the conflict list per line 16 of Algorithm 3. With a
// worker arena the facet, its Verts, and its conflict list all come from
// per-worker blocks (nil a = heap, used by the other schedules).
func (e *engine) newFacet(a *arena, r []int32, p int32, t1, t2 *Facet, round int32) (*Facet, error) {
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
	f, err := e.makeFacet(a, verts)
	if err != nil {
		return nil, err
	}
	f.Depth = 1 + max32(t1.Depth, t2.Depth)
	f.Round = round
	f.Conf = e.mergeFilter(a, t1.Conf, t2.Conf, p, f)
	e.record(f)
	return f, nil
}

// mergeFilter merges the two ascending conflict lists, drops p, and keeps
// the points visible from f, through the driver's shared grain/arena
// discipline (engine.MergeFilterFused): merge and classification in one
// pass, never materializing the candidate run.
func (e *engine) mergeFilter(a *arena, c1, c2 []int32, p int32, f *Facet) []int32 {
	return eng.MergeFilterFused(a, c1, c2, p, facetFilter{e: e, f: f}, e.grain)
}

func max32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}

// initialHull builds the simplex on the first d+1 points and the conflict
// lists of its d+1 facets over the remaining points.
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
	if geom.OrientSimplex(base[:d], base[d]) == 0 {
		return nil, fmt.Errorf("%w: first %d points are affinely dependent", ErrDegenerate, d+1)
	}
	e.interior = geom.Centroid(base)

	for omit := 0; omit <= d; omit++ {
		verts := a.Ints(d)
		for i := 0; i <= d; i++ {
			if i != omit {
				verts = append(verts, int32(i))
			}
		}
		f, err := e.makeFacet(a, verts)
		if err != nil {
			return nil, err
		}
		facets = append(facets, f)
	}
	if e.ru != nil {
		e.ru.inits = facets
	}
	for _, f := range facets {
		f.Conf = conflict.BuildFilterInto(int32(d+1), int32(n), facetFilter{e: e, f: f}, e.grain, alloc)
		e.record(f)
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
// property: every ridge of an alive facet is shared by exactly one other
// alive facet.
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
	// Each ridge of a closed pseudomanifold is shared by exactly two alive
	// facets, so the count map ends at alive*d/2 entries — preallocate (or,
	// pooled, refill the retained map: clear keeps its buckets).
	var ridgeCount map[ridgeMapKey]int32
	if ru != nil && ru.ridges != nil {
		ridgeCount = ru.ridges
		clear(ridgeCount)
	} else {
		ridgeCount = make(map[ridgeMapKey]int32, len(res.Facets)*e.d/2+1)
		if ru != nil {
			ru.ridges = ridgeCount
		}
	}
	var inHull []bool
	if ru != nil {
		if cap(ru.inHull) < len(e.pts) {
			ru.inHull = make([]bool, len(e.pts))
		}
		inHull = ru.inHull[:len(e.pts)]
		ru.inHull = inHull
		clear(inHull)
	} else {
		inHull = make([]bool, len(e.pts))
	}
	for _, f := range res.Facets {
		for _, v := range f.Verts {
			inHull[v] = true
		}
		for omit := range f.Verts {
			ridgeCount[ridgeKeyOmit(f.Verts, omit)]++
		}
	}
	for k, c := range ridgeCount {
		if c != 2 {
			return nil, fmt.Errorf("hulld: ridge %v shared by %d alive facets, want 2", k.arr, c)
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

// parStripes is the facet-log stripe count for the concurrent engines.
func parStripes() int { return 4 * sched.Workers() }

func validate(pts []geom.Point) (int, error) {
	if len(pts) == 0 {
		return 0, fmt.Errorf("hulld: empty input")
	}
	d := len(pts[0])
	if err := geom.ValidateCloud(pts, d); err != nil {
		return 0, err
	}
	return d, nil
}

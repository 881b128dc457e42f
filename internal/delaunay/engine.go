package delaunay

// This file adapts 2D Delaunay triangulation to the generic Algorithm-3
// driver in internal/engine, mirroring the hulld kernel layout: triangles
// are the facets, a ridge is a sorted 2-vertex edge, and a new triangle has
// two fresh edges — those containing the pivot. The in-circle predicate
// rides the same filtered-fast-path discipline as the hull kernels, via the
// classic lifting map: L(q) = (q_x, q_y, q_x^2 + q_y^2) sends circles to
// planes, so "q strictly inside the circumcircle of CCW (a, b, c)" becomes
// "L(q) strictly below the plane through L(a), L(b), L(c)" — one cached
// 3-term dot product per test, with the exact geom.InCircle predicate as
// the fallback whenever the static certificate cannot decide the sign.
//
// The certification threshold cannot be one global constant here: the
// bounding-triangle vertices sit at ~4096x the input radius and the lift
// squares coordinates, so a cloud-wide bound would be inflated by ~4096^4
// and never certify anything. Instead each triangle carries a per-facet
// threshold eps_f = 2 * StaticFilterEps({1,1,1}) * X*Y*Z, where X, Y, Z are
// per-axis maxima over the triangle's own lifted vertices and the lifted
// input points (conflict candidates are always input points). The extra
// factor 2 absorbs the lift's own rounding (z = x^2+y^2 is evaluated in
// float, perturbing the plane and the test point by O(u * X*Y*Z), far below
// the static formula's 912u * X*Y*Z).
//
// Two structural deviations from the hull kernels:
//
//   - The three edges of the bounding triangle have only one incident
//     triangle each. Three static sentinel triangles {a, b, -1} with empty
//     conflict sets stand in for the missing neighbors, restoring the
//     driver's two-facets-per-ridge invariant. A sentinel's pivot is NoPivot,
//     so it is never the replaced facet and never killed (the equal-pivot
//     branch requires both pivots NoPivot, which finalizes instead), and it
//     is never recorded, so it cannot leak into results.
//   - Conflict containment across a bounding edge, C(new) ⊆ C(t1) ∪ ∅,
//     holds because every input point is strictly inside the bounding
//     triangle (guaranteed by the 4096x margin): circles through a common
//     chord form a pencil whose inner caps nest, and no input point lies on
//     the outer side of a bounding edge. This is the same containment the
//     seed Triangulate already relies on for boundary cavity edges.

import (
	"fmt"
	"math"
	"sort"

	"parhull/internal/conflict"
	eng "parhull/internal/engine"
	"parhull/internal/facetlog"
	"parhull/internal/geom"
	"parhull/internal/hullstats"
	"parhull/internal/sched"
)

// arena is this kernel's per-worker allocator: the generic bump arena
// instantiated at the triangle type.
type arena = eng.Arena[Triangle]

// kernel adapts the Delaunay geometry to the generic Algorithm-3 driver.
type kernel struct{ e *dEngine }

// Pivot implements engine.Kernel.
func (k kernel) Pivot(t *Triangle) int32 {
	if len(t.Conf) == 0 {
		return eng.NoPivot
	}
	return t.Conf[0]
}

// NewFacet implements engine.Kernel.
func (k kernel) NewFacet(a *arena, r []int32, p int32, t1, t2 *Triangle, round int32) (*Triangle, error) {
	return k.e.newTriangle(a, r, p, t1, t2, round)
}

// FreshRidges implements engine.Kernel: the fresh edges of the new triangle
// t (built on ridge r with pivot p) are the two edges containing p. Both
// 2-vertex edges carve from one arena block reservation; the slices are
// immutable once published, so sharing a backing array is safe.
func (k kernel) FreshRidges(a *arena, t *Triangle, r []int32, buf [][]int32) [][]int32 {
	p := t.Verts[0] + t.Verts[1] + t.Verts[2] - r[0] - r[1]
	s := a.IntsLen(4)
	r0, r1 := s[0:2:2], s[2:4:4]
	fillEdge(r0, r[0], p)
	fillEdge(r1, r[1], p)
	return append(buf, r0, r1)
}

// Kill implements engine.Kernel.
func (k kernel) Kill(t *Triangle) bool { return t.kill() }

// fillEdge writes the sorted edge (a, b) into dst.
func fillEdge(dst []int32, a, b int32) {
	if a < b {
		dst[0], dst[1] = a, b
	} else {
		dst[0], dst[1] = b, a
	}
}

// dEngine carries the per-construction state of the engine paths: the point
// set extended with the bounding vertices, the flat lifted coordinates of
// the in-circle fast path, and the recording plumbing.
type dEngine struct {
	all  []geom.Point // input points plus the three bounding vertices
	n    int          // input count
	lift []float64    // lifted coordinates (x, y, x^2+y^2), stride 3
	pred bool         // lifted-plane predicate cache enabled
	// inMax is the per-axis maximum absolute lifted coordinate over the
	// input points — the conflict candidates every plane is evaluated on.
	inMax [3]float64
	// eps3 is 2 * StaticFilterEps({1,1,1}): the scale-free coefficient of
	// the per-facet certification threshold.
	eps3  float64
	grain int
	rec   *hullstats.Recorder

	log *facetlog.Log[*Triangle] // every triangle ever created
}

// newDEngine validates pts (same checks, same typed errors as Triangulate)
// and assembles the engine state.
func newDEngine(pts []geom.Point, counters bool, grain, stripes int, noPred bool) (*dEngine, error) {
	all, err := validateAndBound(pts)
	if err != nil {
		return nil, err
	}
	e := &dEngine{
		all:   all,
		n:     len(pts),
		grain: grain,
		rec:   hullstats.NewRecorder(counters),
		log:   facetlog.New[*Triangle](stripes),
	}
	if !noPred {
		e.lift = make([]float64, 3*len(all))
		ok := true
		for i, p := range all {
			z := p[0]*p[0] + p[1]*p[1]
			e.lift[3*i] = p[0]
			e.lift[3*i+1] = p[1]
			e.lift[3*i+2] = z
			if math.IsInf(z, 0) {
				ok = false // the squared bounding radius overflowed
			}
			if i < len(pts) {
				e.inMax[0] = math.Max(e.inMax[0], math.Abs(p[0]))
				e.inMax[1] = math.Max(e.inMax[1], math.Abs(p[1]))
				e.inMax[2] = math.Max(e.inMax[2], z)
			}
		}
		e.pred = ok
		e.eps3 = 2 * geom.StaticFilterEps([]float64{1, 1, 1})
	}
	e.rec.SetPlaneCache(e.pred)
	e.rec.MarkHeapBase()
	return e, nil
}

// liftRow returns the lifted coordinates of vertex v.
func (e *dEngine) liftRow(v int32) []float64 {
	o := 3 * int(v)
	return e.lift[o : o+3 : o+3]
}

// makeTri assembles a triangle on (va, vb, vc), normalized to CCW order
// with the smallest vertex first (so the vertex tuple is deterministic
// across schedules), and caches its negated lifted plane: after negation,
// conflict ⇔ Eval(L(q)) > 0, certified when |Eval| clears the per-facet
// threshold. Negating N and Off is exact in IEEE arithmetic, so the
// uncertain band is bit-identical to the un-negated plane's.
func (e *dEngine) makeTri(a *arena, va, vb, vc int32) (*Triangle, error) {
	o := geom.Orient2D(e.all[va], e.all[vb], e.all[vc])
	if o == 0 {
		return nil, fmt.Errorf("%w: collinear triangle (%d %d %d)", ErrDegenerate, va, vb, vc)
	}
	if o < 0 {
		vb, vc = vc, vb
	}
	// Rotate the CCW cycle so the smallest index leads.
	switch {
	case vb < va && vb < vc:
		va, vb, vc = vb, vc, va
	case vc < va && vc < vb:
		va, vb, vc = vc, va, vb
	}
	t := a.Facet()
	t.Verts = [3]int32{va, vb, vc}
	if e.pred {
		la, lb, lc := e.liftRow(va), e.liftRow(vb), e.liftRow(vc)
		var buf [3]geom.Point
		buf[0], buf[1], buf[2] = geom.Point(la), geom.Point(lb), geom.Point(lc)
		var epsf float64 = e.eps3
		for j := 0; j < 3; j++ {
			m := math.Max(e.inMax[j], math.Max(math.Abs(la[j]), math.Max(math.Abs(lb[j]), math.Abs(lc[j]))))
			epsf *= m
		}
		if !math.IsInf(epsf, 0) {
			p := geom.NewFacetPlane(buf[:], epsf)
			// For CCW (va, vb, vc) the lifted normal points up (its z
			// component is twice the signed area), so inside-circumcircle is
			// Eval < 0; negate so the filter loops test Eval > Eps.
			p.N[0], p.N[1], p.N[2] = -p.N[0], -p.N[1], -p.N[2]
			p.Off = -p.Off
			t.plane = p
		}
	}
	return t, nil
}

// exactConflict is the exact in-circle predicate with no counting — the
// batch filters' exact path and uncertain-sidecar resolution. Verts are
// CCW, so InCircle is +1 strictly inside.
func (e *dEngine) exactConflict(v int32, t *Triangle) bool {
	return geom.InCircle(e.all[t.Verts[0]], e.all[t.Verts[1]], e.all[t.Verts[2]], e.all[v]) > 0
}

func (e *dEngine) record(t *Triangle) {
	e.rec.Created(t.Depth)
	k := (uint32(t.Verts[0])*31+uint32(t.Verts[1]))*31 + uint32(t.Verts[2])
	e.log.Append(k, t)
}

// newTriangle builds the triangle joining edge r with pivot p, supported by
// (t1, t2), filtering the conflict list per line 16 of Algorithm 3 (t2 may
// be an outer sentinel, whose conflict list is empty).
func (e *dEngine) newTriangle(a *arena, r []int32, p int32, t1, t2 *Triangle, round int32) (*Triangle, error) {
	t, err := e.makeTri(a, r[0], r[1], p)
	if err != nil {
		return nil, err
	}
	t.Depth = 1 + max(t1.Depth, t2.Depth)
	t.Round = round
	t.Conf = e.mergeFilter(a, t1.Conf, t2.Conf, p, t)
	e.record(t)
	return t, nil
}

// mergeFilter merges the two ascending conflict lists, drops p, and keeps
// the points inside t's circumcircle, through the driver's shared
// grain/arena discipline: merge and classification in one pass over the
// flat lifted coordinates.
func (e *dEngine) mergeFilter(a *arena, c1, c2 []int32, p int32, t *Triangle) []int32 {
	return eng.MergeFilterFused(a, c1, c2, p, triFilter{e: e, t: t}, e.grain)
}

// initial builds the bounding-triangle root with its conflict list over
// every input point, the three outer sentinels, and the three root edges
// (the initial ridge tasks pair the root with one sentinel per edge).
func (e *dEngine) initial() (root *Triangle, outers [3]*Triangle, edges [3][]int32, err error) {
	n := e.n
	root, err = e.makeTri(nil, int32(n), int32(n+1), int32(n+2))
	if err != nil {
		return nil, outers, edges, err
	}
	root.Conf = conflict.BuildFilterInto(0, int32(n), triFilter{e: e, t: root}, e.grain, nil)
	if len(root.Conf) != n {
		// Ascending subset of [0, n): the first index where Conf[i] != i is
		// the first point outside the root circumcircle (same error as the
		// seed; unreachable for finite inputs given the 4096x margin).
		esc := int32(len(root.Conf))
		for i, v := range root.Conf {
			if v != int32(i) {
				esc = int32(i)
				break
			}
		}
		return nil, outers, edges, fmt.Errorf("delaunay: point %d escapes the bounding triangle", esc)
	}
	e.record(root)
	for k := 0; k < 3; k++ {
		a, b := root.Verts[k], root.Verts[(k+1)%3]
		edge := make([]int32, 2)
		fillEdge(edge, a, b)
		edges[k] = edge
		outers[k] = &Triangle{Verts: [3]int32{a, b, -1}}
	}
	return root, outers, edges, nil
}

// collectResult gathers alive triangles and validates the tiling of the
// bounding triangle: every edge of an alive triangle is shared by exactly
// two alive triangles, except the three bounding edges (one each).
func (e *dEngine) collectResult(rounds int) (*Result, error) {
	e.rec.SampleHeap()
	res := &Result{Created: e.log.Snapshot()}
	n := e.n
	edgeCount := make(map[[2]int32]int32, 2*len(res.Created))
	for _, t := range res.Created {
		if !t.Alive() {
			continue
		}
		if !t.Synthetic(n) {
			res.Triangles = append(res.Triangles, t)
		}
		for k := 0; k < 3; k++ {
			a, b := t.Verts[k], t.Verts[(k+1)%3]
			if a > b {
				a, b = b, a
			}
			edgeCount[[2]int32{a, b}]++
		}
	}
	for k, c := range edgeCount {
		want := int32(2)
		if int(k[0]) >= n && int(k[1]) >= n {
			want = 1 // bounding-triangle edge: the sentinel is not counted
		}
		if c != want {
			return nil, fmt.Errorf("delaunay: edge %v shared by %d alive triangles, want %d", k, c, want)
		}
	}
	sort.Slice(res.Triangles, func(i, j int) bool {
		a, b := res.Triangles[i].Verts, res.Triangles[j].Verts
		for k := 0; k < 3; k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	res.Stats = e.rec.Snapshot(rounds, len(res.Triangles))
	return res, nil
}

// parStripes is the facet-log stripe count for the concurrent engines.
func parStripes() int { return 4 * sched.Workers() }

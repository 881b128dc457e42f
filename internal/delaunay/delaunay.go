// Package delaunay implements incremental 2D Delaunay triangulation with
// the same dependence-depth instrumentation as the hull engines. The paper
// builds on prior work showing that randomized incremental Delaunay
// triangulation has shallow dependence depth ([17, 18] in its references);
// this package reproduces that result inside the same framework: a new
// triangle created on cavity-boundary edge e depends only on the two
// triangles sharing e (2-support), so depth(t) = 1 + max over that pair —
// exactly the configuration dependence graph of Definition 4.1.
//
// The triangulation is seeded with a large bounding triangle (three
// synthetic points inserted first); output triangles touching synthetic
// points are dropped. Every surviving triangle satisfies the empty-
// circumcircle property with respect to all input points (asserted by
// tests); triangles near the input hull whose circumcircles reach a
// synthetic point are the usual finite-bounding-triangle artifact and are
// simply absent. All in-circle and orientation tests are exact.
//
// Triangulate is the map-based reference and Space the configuration space.
// The engines run elsewhere: a point lies strictly inside a triangle's
// circumcircle exactly when its lift (x, y, x²+y²) lies strictly below the
// plane of the lifted triangle, so the triangulation is the lower hull of
// the lifted points, which package hulld builds in its lifted mode
// (Options.Lift) on every schedule. Lift and Triangles adapt the input and
// the output.
package delaunay

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"parhull/internal/geom"
	"parhull/internal/hulld"
	"parhull/internal/hullstats"
	"parhull/internal/pointgen"
)

// ErrDegenerate reports inputs that cannot be triangulated (fewer than one
// point, NaN coordinates, or exact duplicates).
var ErrDegenerate = errors.New("delaunay: degenerate input")

// DuplicateError reports two input points with equal coordinates by their
// indices, I < J. It matches ErrDegenerate under errors.Is, and a caller
// that reordered the input maps the indices back to its own.
type DuplicateError struct{ I, J int }

func (e *DuplicateError) Error() string {
	return fmt.Sprintf("%v: duplicate points %d and %d", ErrDegenerate, e.I, e.J)
}

// Unwrap returns ErrDegenerate.
func (e *DuplicateError) Unwrap() error { return ErrDegenerate }

// Triangle is one triangle of Triangulate's evolving triangulation.
// Immutable after creation except for liveness.
type Triangle struct {
	// Verts holds the three point indices in counterclockwise order.
	// Indices >= the input size refer to the synthetic bounding points.
	Verts [3]int32
	// Conf is the conflict set: input points strictly inside the
	// circumcircle, ascending.
	Conf []int32
	// Depth is the dependence depth (Definition 4.1).
	Depth int32

	dead atomic.Bool
}

// Alive reports whether the triangle is still part of the triangulation.
func (t *Triangle) Alive() bool { return !t.dead.Load() }

// Synthetic reports whether the triangle touches a bounding vertex, given
// the input size n.
func (t *Triangle) Synthetic(n int) bool {
	return int(t.Verts[0]) >= n || int(t.Verts[1]) >= n || int(t.Verts[2]) >= n
}

// String formats the triangle's vertices.
func (t *Triangle) String() string { return fmt.Sprint(t.Verts) }

// Stats aggregates instrumentation; see hullstats.Stats (HullSize is the
// number of output triangles).
type Stats = hullstats.Stats

// Result is the output of Triangulate.
type Result struct {
	// Triangles holds the surviving triangles not touching the bounding
	// points, i.e. the Delaunay triangles of the input.
	Triangles []*Triangle
	// Created holds every triangle ever created (including synthetic ones).
	Created []*Triangle
	Stats   Stats
}

// Triangulate computes the Delaunay triangulation of pts, inserting the
// points in the order given (shuffle for the randomized depth bound).
func Triangulate(pts []geom.Point) (*Result, error) {
	bound, err := validateAndBound(pts)
	if err != nil {
		return nil, err
	}
	n := len(pts)
	all := append(pts[:n:n], bound[:]...)
	b0, b1, b2 := int32(n), int32(n+1), int32(n+2)

	var rec hullstats.Recorder
	var created []*Triangle // every triangle, in creation order

	// inCircle counts a conflict test; triangle verts are CCW so InCircle
	// is +1 strictly inside.
	inCircle := func(t *Triangle, p int32) bool {
		rec.VTests.Inc(uint64(p))
		return geom.InCircle(all[t.Verts[0]], all[t.Verts[1]], all[t.Verts[2]], all[p]) > 0
	}

	root := &Triangle{Verts: [3]int32{b0, b1, b2}}
	if geom.Orient2D(all[b0], all[b1], all[b2]) <= 0 {
		root.Verts = [3]int32{b0, b2, b1}
	}
	for i := int32(0); i < int32(n); i++ {
		if inCircle(root, i) {
			root.Conf = append(root.Conf, i)
		} else {
			return nil, fmt.Errorf("delaunay: point %d escapes the bounding triangle", i)
		}
	}
	created = append(created, root)

	// Conflict graph and edge adjacency.
	pf := make([][]*Triangle, n)
	for _, v := range root.Conf {
		pf[v] = append(pf[v], root)
	}
	adj := map[[2]int32][]*Triangle{}
	edgeKey := func(a, b int32) [2]int32 {
		if a > b {
			a, b = b, a
		}
		return [2]int32{a, b}
	}
	register := func(t *Triangle) {
		for e := 0; e < 3; e++ {
			k := edgeKey(t.Verts[e], t.Verts[(e+1)%3])
			adj[k] = append(adj[k], t)
		}
	}
	register(root)

	for i := int32(0); i < int32(n); i++ {
		// Cavity R: alive triangles whose circumcircle contains p.
		var cavity []*Triangle
		inR := map[*Triangle]bool{}
		for _, t := range pf[i] {
			if t.Alive() && !inR[t] {
				cavity = append(cavity, t)
				inR[t] = true
			}
		}
		if len(cavity) == 0 {
			return nil, fmt.Errorf("delaunay: point %d has empty cavity (duplicate or degenerate input)", i)
		}
		// Boundary edges: edge of a cavity triangle whose neighbor is not
		// in the cavity (or absent, which cannot happen inside the
		// bounding triangle).
		var fresh []*Triangle
		for _, t := range cavity {
			for e := 0; e < 3; e++ {
				a, b := t.Verts[e], t.Verts[(e+1)%3]
				k := edgeKey(a, b)
				var nb *Triangle
				live := adj[k][:0]
				for _, u := range adj[k] {
					if u.Alive() {
						live = append(live, u)
						if u != t {
							nb = u
						}
					}
				}
				adj[k] = live
				if nb != nil && inR[nb] {
					continue // interior cavity edge
				}
				// New triangle (a, b, p); (a, b) is CCW in t, so appending
				// p keeps CCW orientation facing the cavity.
				nt := &Triangle{Verts: [3]int32{a, b, i}}
				nt.Depth = 1 + t.Depth
				if nb != nil && nb.Depth+1 > nt.Depth {
					nt.Depth = nb.Depth + 1
				}
				// C(nt) ⊆ C(t) ∪ C(nb): merge and filter, excluding p.
				nt.Conf = mergeFilter(t.Conf, confOf(nb), i, func(p int32) bool { return inCircle(nt, p) })
				created = append(created, nt)
				fresh = append(fresh, nt)
			}
		}
		for _, t := range cavity {
			t.dead.Store(true)
			rec.Replaced(true)
		}
		for _, t := range fresh {
			register(t)
			for _, v := range t.Conf {
				pf[v] = append(pf[v], t)
			}
		}
	}

	res := &Result{Created: created}
	var depths hullstats.Depths
	for _, t := range created {
		depths.Add(t.Depth)
		if t.Alive() && !t.Synthetic(n) {
			res.Triangles = append(res.Triangles, t)
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
	res.Stats = rec.Snapshot(0, len(res.Triangles), depths, nil)
	return res, nil
}

// mergeFilter is the reference's serial merge-and-filter: the ascending
// union of the ascending lists c1 and c2, excluding drop, keeping the
// elements accepted by keep (nil when none is). It is deliberately the
// plain pointwise loop, independent of the engines' fused filter.
func mergeFilter(c1, c2 []int32, drop int32, keep func(int32) bool) []int32 {
	var out []int32
	i, j := 0, 0
	for i < len(c1) || j < len(c2) {
		var v int32
		switch {
		case j == len(c2) || (i < len(c1) && c1[i] < c2[j]):
			v = c1[i]
			i++
		case i == len(c1) || c2[j] < c1[i]:
			v = c2[j]
			j++
		default:
			v = c1[i]
			i++
			j++
		}
		if v != drop && keep(v) {
			out = append(out, v)
		}
	}
	return out
}

func confOf(t *Triangle) []int32 {
	if t == nil {
		return nil
	}
	return t.Conf
}

// validateAndBound checks the input (dimension and finiteness, at least one
// point, no exact duplicates) and returns the three synthetic bounding
// vertices, placed far enough out that every input point is strictly inside
// their triangle. Triangulate indexes them n, n+1, n+2 after the input;
// Lift puts them first, as hulld's base.
func validateAndBound(pts []geom.Point) ([3]geom.Point, error) {
	if err := geom.ValidateCloud(pts, 2); err != nil {
		return [3]geom.Point{}, err
	}
	n := len(pts)
	if n < 1 {
		return [3]geom.Point{}, fmt.Errorf("%w: empty input", ErrDegenerate)
	}
	seen := make(map[[2]float64]int, n)
	for i, p := range pts {
		k := [2]float64{p[0], p[1]}
		if j, dup := seen[k]; dup {
			return [3]geom.Point{}, &DuplicateError{I: j, J: i}
		}
		seen[k] = i
	}
	r := 1.0
	for _, p := range pts {
		r = math.Max(r, math.Max(math.Abs(p[0]), math.Abs(p[1])))
	}
	r *= 1 << 12
	return [3]geom.Point{{0, 3 * r}, {-3 * r, -2 * r}, {3 * r, -2 * r}}, nil
}

// Lift validates pts and returns the input of a lifted hulld run
// (Options.Lift): the 2D points with the bounding triangle first, which with
// pts[0] forms hulld's base simplex, and their float lifts. Index i+3 of
// both is pts[i]. The bounding triangle's lift is the hull's one upper
// facet. Its conflict list is empty, so it stands in for the missing
// neighbours across the bounding edges, and it stays even when every input
// point is co-circular — a coplanar lifted set, which without it has no base
// simplex.
func Lift(pts []geom.Point) (plane, lifted []geom.Point, err error) {
	bound, err := validateAndBound(pts)
	if err != nil {
		return nil, nil, err
	}
	plane = append(append(make([]geom.Point, 0, len(pts)+3), bound[:]...), pts...)
	return plane, pointgen.Lift2D(plane), nil
}

// Triangles returns the Delaunay triangles of a lifted hulld run over
// Lift's output: the alive facets clear of the bounding triangle, as
// counterclockwise triples of pts indices with the smallest first, sorted —
// the order of Triangulate's Result.Triangles.
func Triangles(res *hulld.Result, plane []geom.Point) [][3]int {
	out := make([][3]int, 0, len(res.Facets))
	for _, f := range res.Facets {
		v := f.Verts // ascending
		if v[0] < 3 {
			continue // touches the bounding triangle, or is its lift
		}
		a, b, c := int(v[0])-3, int(v[1])-3, int(v[2])-3
		if geom.Orient2D(plane[v[0]], plane[v[1]], plane[v[2]]) < 0 {
			b, c = c, b
		}
		out = append(out, [3]int{a, b, c})
	}
	slices.SortFunc(out, func(x, y [3]int) int { return slices.Compare(x[:], y[:]) })
	return out
}

package parhull

import (
	"errors"
	"fmt"
	"math"

	"parhull/internal/circles"
	"parhull/internal/corner"
	"parhull/internal/delaunay"
	"parhull/internal/engine"
	"parhull/internal/geom"
	"parhull/internal/halfspace"
	"parhull/internal/pointgen"
	"parhull/internal/trapezoid"
)

// HalfspaceVertex is one vertex of a half-space intersection: its location
// and the d half-spaces whose boundaries meet there (indices into the
// normals slice).
type HalfspaceVertex struct {
	Point      Point
	Halfspaces []int
}

// HalfspaceResult is the output of HalfspaceIntersection and
// HalfspaceIntersectionDirect.
type HalfspaceResult struct {
	Vertices []HalfspaceVertex
	// Stats instruments the underlying construction. For the dual-hull route
	// MaxDepth is the dependence depth of the half-space intersection process
	// (Section 7 — the two are isomorphic under duality); for the direct route
	// Rounds/RoundWidths describe the rounds engine and FacetsCreated counts
	// configurations ever activated.
	Stats Stats
}

// HalfspaceIntersection computes the vertices of the intersection of the
// half-spaces {x : normals[i]·x <= 1} by duality (Section 7): it builds the
// convex hull of the normal vectors exactly as HullD does, then dualizes
// each hull facet back to a vertex. Engine, Map (with the degradation
// ladder), PreHull, Shuffle, Workers, FilterGrain, and Context therefore
// apply as in HullD, and Stats is the hull's. The intersection must be
// bounded, i.e. the normals must positively span R^d (the origin strictly
// inside their hull) — prepend HalfspaceBoundingSimplex to guarantee it;
// unbounded input returns ErrDegenerate.
func HalfspaceIntersection(normals []Point, opt *Options) (out *HalfspaceResult, err error) {
	defer guard(&err)
	res, err := HullD(normals, opt)
	if err != nil {
		return nil, err
	}
	out = &HalfspaceResult{Vertices: make([]HalfspaceVertex, len(res.Facets)), Stats: res.Stats}
	for i, f := range res.Facets {
		p, err := halfspace.Vertex(normals, f.Vertices)
		if err != nil {
			return nil, wrapErr(err)
		}
		out.Vertices[i] = HalfspaceVertex{Point: p, Halfspaces: f.Vertices}
	}
	return out, nil
}

// HalfspaceIntersectionDirect computes the same vertex set as
// HalfspaceIntersection through the direct configuration space of Section 7
// run on the generic rounds engine (engine.SpaceRounds with the space's
// batch ConflictScanner) instead of the dual hull. The space enumerates all
// d-subsets of the normals, so this route is for moderate inputs and for
// validating the duality; the dual route is the fast path.
//
// The first d+1 normals are the base and are never shuffled (every insertion
// prefix must describe a bounded intersection — prepend
// HalfspaceBoundingSimplex); Options.Shuffle permutes the rest.
func HalfspaceIntersectionDirect(normals []Point, opt *Options) (out *HalfspaceResult, err error) {
	defer guard(&err)
	o := opt.or()
	if err := o.validate(); err != nil {
		return nil, err
	}
	s, err := halfspace.NewSpace(normals)
	if err != nil {
		return nil, wrapErr(err)
	}
	if len(normals) < s.BaseSize() {
		return nil, fmt.Errorf("%w: need at least %d halfspaces for a bounded base, got %d",
			ErrDegenerate, s.BaseSize(), len(normals))
	}
	res, err := engine.SpaceRounds(o.Context, o.inject, s, o.insertionOrder(len(normals), s.BaseSize()))
	if err != nil {
		return nil, wrapErr(err)
	}
	out = &HalfspaceResult{}
	fillSpaceStats(&out.Stats, res)
	for _, c := range res.Alive {
		out.Vertices = append(out.Vertices, HalfspaceVertex{
			Point:      s.Vertex(c),
			Halfspaces: append([]int(nil), s.Defining(c)...),
		})
	}
	return out, nil
}

// HalfspaceBoundingSimplex returns d+1 normals whose half-spaces form a
// bounded simplex around the origin; prepending them to any normal set
// makes the intersection (and every prefix of the insertion order) bounded.
func HalfspaceBoundingSimplex(d int) []Point {
	return halfspace.BoundingSimplex(d)
}

// CircleArc is one boundary arc of a unit-circle intersection: the arc of
// circle Circle covering angles [Lo, Lo+Length] (radians, wrapping).
type CircleArc struct {
	Circle     int
	Lo, Length float64
}

// UnitCircleIntersection computes the boundary arcs of the intersection of
// unit disks centered at centers (Section 7), by the incremental arc
// configuration space run on the generic rounds engine. The boolean reports
// whether the intersection region is non-empty; a pair of disks at center
// distance >= 2 makes it empty (not an error). Centers are inserted in input
// order unless Options.Shuffle is set; Options.Context cancels cooperatively.
// Duplicate centers are reported as ErrDegenerate.
func UnitCircleIntersection(centers []Point, opt *Options) (_ []CircleArc, _ bool, err error) {
	defer guard(&err)
	o := opt.or()
	if err := o.validate(); err != nil {
		return nil, false, err
	}
	if len(centers) == 0 {
		return nil, false, nil
	}
	if err := geom.ValidateCloud(centers, 2); err != nil {
		return nil, false, wrapErr(err)
	}
	if len(centers) == 1 {
		return []CircleArc{{Circle: 0, Lo: circles.Full.Lo, Length: circles.Full.Length}}, true, nil
	}
	s, err := circles.NewSpace(centers)
	if errors.Is(err, circles.ErrDisjoint) {
		return nil, false, nil // some pair of disks cannot overlap: empty intersection
	}
	if err != nil {
		return nil, false, wrapErr(err)
	}
	res, err := engine.SpaceRounds(o.Context, o.inject, s, o.insertionOrder(len(centers), 0))
	if err != nil {
		return nil, false, wrapErr(err)
	}
	arcs := s.Arcs(res.Alive)
	out := make([]CircleArc, len(arcs))
	for i, a := range arcs {
		out[i] = CircleArc{Circle: a.Circle, Lo: a.Iv.Lo, Length: a.Iv.Length}
	}
	return out, len(out) > 0, nil
}

// TrapezoidSegment is a horizontal segment y = Y spanning x in [XL, XR].
type TrapezoidSegment = trapezoid.Segment

// TrapezoidBox is the bounding box of a trapezoidal decomposition.
type TrapezoidBox = trapezoid.Box

// TrapezoidCell is one cell of a trapezoidal decomposition: its rectangle
// and the segments defining its boundary (empty for the whole box).
type TrapezoidCell struct {
	XL, XR, YB, YT float64
	Segments       []int
}

// TrapezoidDecomposition computes the trapezoidal (vertical) decomposition
// of non-touching horizontal segments inside box (the Section 4 companion
// space), run on the generic rounds engine. Segments are inserted in input
// order unless Options.Shuffle is set; Options.Context cancels
// cooperatively. This space lacks constant-size support sets (adding one
// segment can merge Omega(n) cells), so unlike the hull spaces its
// dependence depth — Stats on the result of the internal engine — can be
// linear; the decomposition itself is order-independent and exact.
func TrapezoidDecomposition(segs []TrapezoidSegment, box TrapezoidBox, opt *Options) (_ []TrapezoidCell, err error) {
	defer guard(&err)
	o := opt.or()
	if err := o.validate(); err != nil {
		return nil, err
	}
	for _, v := range []float64{box.XL, box.XR, box.YB, box.YT} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%w: non-finite box coordinate %v", ErrBadCoordinate, v)
		}
	}
	for i, sg := range segs {
		for _, v := range []float64{sg.Y, sg.XL, sg.XR} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("%w: non-finite coordinate %v in segment %d", ErrBadCoordinate, v, i)
			}
		}
	}
	if box.XL >= box.XR || box.YB >= box.YT {
		return nil, fmt.Errorf("%w: empty bounding box", ErrDegenerate)
	}
	if len(segs) == 0 {
		return []TrapezoidCell{{XL: box.XL, XR: box.XR, YB: box.YB, YT: box.YT, Segments: []int{}}}, nil
	}
	s, err := trapezoid.NewSpace(segs, box)
	if err != nil {
		return nil, wrapErr(err)
	}
	res, err := engine.SpaceRounds(o.Context, o.inject, s, o.insertionOrder(len(segs), 0))
	if err != nil {
		return nil, wrapErr(err)
	}
	out := make([]TrapezoidCell, 0, len(res.Alive))
	for _, c := range res.Alive {
		xl, xr, yb, yt := s.CellRect(c)
		out = append(out, TrapezoidCell{XL: xl, XR: xr, YB: yb, YT: yt,
			Segments: append([]int{}, s.Defining(c)...)})
	}
	return out, nil
}

// DelaunayResult is the output of Delaunay.
type DelaunayResult struct {
	// Triangles lists the Delaunay triangles as counterclockwise vertex
	// index triples into the input slice.
	Triangles [][3]int
	// Stats instruments the construction; MaxDepth is the dependence depth
	// of the incremental process (O(log n) whp for a shuffled order, per
	// the prior work the paper builds on).
	Stats Stats
}

// Delaunay computes the Delaunay triangulation of 2D points by the
// randomized incremental method, as the lower convex hull of the points
// lifted onto the paraboloid z = x²+y² (the 3D hull kernel in its lifted
// mode; see internal/delaunay for the bounding-triangle construction). It
// runs on a one-shot Builder through the same hull runner as HullD, so
// Options.Engine selects the schedule — EngineParallel (default,
// Algorithm 3 on the work-stealing executor), EngineSequential
// (Algorithm 2), or EngineRounds (the round-synchronous schedule;
// Stats.Rounds/RoundWidths report the dependence structure) — and all
// three produce the identical triangle set. Points are inserted in input
// order unless Options.Shuffle is set (which the O(log n) depth guarantee
// assumes). Map (with the degradation ladder), Workers, FilterGrain, and
// Context apply; the pre-hull reduction does not (a Delaunay triangulation
// keeps interior points). Stats counts the lifted hull, whose given base
// simplex is the bounding triangle and the first point, and HullSize is the
// number of triangles.
func Delaunay(pts []Point, opt *Options) (out *DelaunayResult, err error) {
	defer guard(&err)
	b := NewBuilder(opt)
	defer b.Close()
	work, order, err := b.start(pts, 2)
	if err != nil {
		return nil, err
	}
	plane, lifted, err := delaunay.Lift(work)
	if err != nil {
		var dup *delaunay.DuplicateError
		if order != nil && errors.As(err, &dup) {
			i, j := order[dup.I], order[dup.J]
			err = &delaunay.DuplicateError{I: min(i, j), J: max(i, j)}
		}
		return nil, wrapErr(err)
	}
	res, err := b.runD(lifted, plane)
	if err != nil {
		return nil, wrapErr(err)
	}
	tris := delaunay.Triangles(res, plane)
	if order != nil {
		for i, t := range tris {
			tris[i] = [3]int{order[t[0]], order[t[1]], order[t[2]]}
		}
	}
	out = &DelaunayResult{Triangles: tris, Stats: res.Stats}
	out.Stats.HullSize = len(tris)
	return out, nil
}

// Face3D is one face of a (possibly degenerate) 3D hull: its vertex indices
// in cyclic boundary order. Faces need not be triangles.
type Face3D struct {
	Vertices []int
}

// Hull3DDegenerate computes the convex hull of 3D points that may be
// degenerate (four or more coplanar, three or more collinear), using the
// corner configuration space of Section 6 (a 4-supported space) run through
// the generic rounds engine (engine.SpaceRounds). It returns the hull's
// faces as vertex cycles — squares for a cube, general polygons for planar
// clusters — rather than a simplicial facet list. Points are inserted in
// input order unless Options.Shuffle is set; Options.Context cancels
// cooperatively.
//
// The corner space has O(n^3) configurations, but its PeakEnumerator keeps
// the engine's work proportional to the configurations actually touched; it
// remains intended for moderate inputs (hundreds of points) — for large
// inputs in general position use Hull3D. Exact duplicates must be removed
// first (they are reported as errors). The engine's final active set
// provably equals T(X) — the set the brute-force core simulator computes —
// which is asserted on degenerate fixtures by tests.
func Hull3DDegenerate(pts []Point, opt *Options) (_ []Face3D, err error) {
	defer guard(&err)
	o := opt.or()
	if err := o.validate(); err != nil {
		return nil, err
	}
	if len(pts) < 4 {
		return nil, fmt.Errorf("%w: Hull3DDegenerate needs at least 4 points, got %d", ErrDegenerate, len(pts))
	}
	s, err := corner.NewSpace(pts)
	if err != nil {
		return nil, wrapErr(err)
	}
	res, err := engine.SpaceRounds(o.Context, o.inject, s, o.insertionOrder(len(pts), 0))
	if err != nil {
		return nil, wrapErr(err)
	}
	faces, err := corner.Faces(s, res.Alive)
	if err != nil {
		return nil, wrapErr(err)
	}
	out := make([]Face3D, len(faces))
	for i, f := range faces {
		out[i] = Face3D{Vertices: f.Vertices}
	}
	return out, nil
}

// insertionOrder is the insertion sequence of a configuration-space route
// over n objects: 0..n-1, with positions base.. shuffled (Seed-driven) when
// Shuffle is set. base pins a prefix in place — HalfspaceIntersectionDirect's
// bounded base; the other routes pass 0.
func (o *Options) insertionOrder(n, base int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if o.Shuffle && n > base {
		for i, j := range pointgen.Perm(pointgen.NewRNG(o.Seed), n-base) {
			order[base+i] = base + j
		}
	}
	return order
}

// fillSpaceStats maps a SpaceResult's instrumentation onto the public Stats.
func fillSpaceStats(st *Stats, res *engine.SpaceResult) {
	st.FacetsCreated = int64(res.Created)
	st.Rounds = res.Rounds
	st.RoundWidths = res.Widths
	st.HullSize = len(res.Alive)
}

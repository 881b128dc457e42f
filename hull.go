package parhull

// Hull2DResult is the output of Hull2D.
type Hull2DResult struct {
	// Vertices lists the hull vertices in counterclockwise order, as
	// indices into the input slice.
	Vertices []int
	Stats    Stats
}

// Hull2D computes the convex hull of 2D points with the selected engine.
// Points are inserted in input order unless Options.Shuffle is set (which
// the Theorem 1.1 depth guarantee assumes). The input must contain at least
// 3 points in general position.
//
// Errors are typed: see ErrDegenerate, ErrBadCoordinate, ErrCapacity,
// ErrCanceled, ErrBadOption. A fixed CAS/TAS ridge table that fills is
// handled by the degradation ladder (doubled-table retries, then a
// MapSharded fallback) unless Options.NoMapFallback is set; see
// Stats.CapacityRetries and Stats.MapFallback.
//
// Hull2D is the one-shot form of Builder.Build2D: it creates the pooled
// state, runs one construction, and retires it. Callers computing many hulls
// should hold a Builder instead and pay the setup once.
func Hull2D(pts []Point, opt *Options) (*Hull2DResult, error) {
	b := NewBuilder(opt)
	defer b.Close()
	return b.Build2D(pts)
}

// Facet is one facet of a d-dimensional hull: the indices of its d defining
// points in the input slice.
type Facet struct {
	Vertices []int
}

// HullDResult is the output of HullD / Hull3D.
type HullDResult struct {
	// Facets are the hull facets (oriented d-simplices).
	Facets []Facet
	// Vertices are the sorted indices of points on the hull.
	Vertices []int
	Stats    Stats
}

// HullD computes the convex hull in the dimension given by the points
// (d = len(pts[0]) >= 2). The input must contain at least d+1 points in
// general position. See Hull2D for ordering semantics and the typed error
// surface / degradation ladder.
//
// HullD is the one-shot form of Builder.Build: it creates the pooled state,
// runs one construction, and retires it. Callers computing many hulls should
// hold a Builder instead and pay the setup once.
func HullD(pts []Point, opt *Options) (*HullDResult, error) {
	b := NewBuilder(opt)
	defer b.Close()
	return b.Build(pts)
}

// Hull3D computes the convex hull of 3D points: HullD with a dimension
// check, and the one-shot form of Builder.Build3D.
func Hull3D(pts []Point, opt *Options) (*HullDResult, error) {
	b := NewBuilder(opt)
	defer b.Close()
	return b.Build3D(pts)
}

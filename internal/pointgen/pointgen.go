// Package pointgen generates the synthetic workloads used by the tests,
// examples, and experiment harness: points distributed uniformly in a ball
// (small hulls), on a sphere (every point on the hull — the adversarial case
// for incremental algorithms), in a cube, Gaussian clouds, and the
// degenerate configurations (grids, coplanar and collinear sets) used to
// exercise Section 6.
//
// All generators are deterministic given the caller-provided source, so
// every experiment in EXPERIMENTS.md is reproducible from its seed.
package pointgen

import (
	"math"
	"math/rand"

	"parhull/internal/geom"
)

// NewRNG returns a deterministic random source for the given seed.
func NewRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// UniformBall returns n points uniformly distributed in the unit d-ball.
// The expected hull size is O(n^((d-1)/(d+1))), so most insertions fall
// inside the current hull — the "easy" regime of the analysis.
func UniformBall(rng *rand.Rand, n, d int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		p := gaussianDir(rng, d)
		r := math.Pow(rng.Float64(), 1/float64(d))
		for j := range p {
			p[j] *= r
		}
		pts[i] = p
	}
	return pts
}

// OnSphere returns n points uniformly distributed on the unit (d-1)-sphere.
// Every point is a hull vertex, maximizing hull size and conflict-set churn.
func OnSphere(rng *rand.Rand, n, d int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = gaussianDir(rng, d)
	}
	return pts
}

// InCube returns n points uniform in the cube [-1, 1]^d.
func InCube(rng *rand.Rand, n, d int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, d)
		for j := range p {
			p[j] = 2*rng.Float64() - 1
		}
		pts[i] = p
	}
	return pts
}

// Gaussian returns n points from the standard d-dimensional normal.
func Gaussian(rng *rand.Rand, n, d int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, d)
		for j := range p {
			p[j] = rng.NormFloat64()
		}
		pts[i] = p
	}
	return pts
}

// Clustered returns n points in k tight Gaussian clusters whose centers are
// drawn uniformly from the unit ball. Most points are interior to the hull of
// their own cluster, but the clusters are unevenly sized and unevenly placed,
// so any fixed-size spatial partition sees blocks of wildly different hull
// density — the adversarial case for the pre-hull block reduction. spread is
// the cluster standard deviation (<= 0 selects 0.02).
func Clustered(rng *rand.Rand, n, d, k int, spread float64) []geom.Point {
	if k < 1 {
		k = 1
	}
	if spread <= 0 {
		spread = 0.02
	}
	centers := UniformBall(rng, k, d)
	pts := make([]geom.Point, n)
	for i := range pts {
		c := centers[rng.Intn(k)]
		p := make(geom.Point, d)
		for j := range p {
			p[j] = c[j] + spread*rng.NormFloat64()
		}
		pts[i] = p
	}
	return pts
}

// Anisotropic returns n points uniform in a ball squashed by a factor of
// ratio^j along dimension j (ratio in (0, 1); <= 0 selects 0.05): a needle in
// 2D, a flattened disc-like spindle in 3D. Near-degenerate aspect ratios
// stress the exact-predicate fallback (tiny determinants) and give spatial
// partitions long thin cells.
func Anisotropic(rng *rand.Rand, n, d int, ratio float64) []geom.Point {
	if ratio <= 0 {
		ratio = 0.05
	}
	pts := UniformBall(rng, n, d)
	scale := make([]float64, d)
	s := 1.0
	for j := range scale {
		scale[j] = s
		s *= ratio
	}
	for _, p := range pts {
		for j := range p {
			p[j] *= scale[j]
		}
	}
	return pts
}

// DuplicateHeavy returns n points in the unit d-ball in which roughly frac
// of the entries are exact bitwise copies of earlier points (frac outside
// (0, 1) selects 0.5). Exact duplicates stress the visibility paths: a copy
// of a hull vertex sits exactly on its facets' planes, inside the epsilon
// band of the static filter, so every such test must fall back to the exact
// predicate and every engine must agree on which copy (if any) becomes the
// vertex.
func DuplicateHeavy(rng *rand.Rand, n, d int, frac float64) []geom.Point {
	if frac <= 0 || frac >= 1 {
		frac = 0.5
	}
	pts := UniformBall(rng, n, d)
	for i := 1; i < len(pts); i++ {
		if rng.Float64() < frac {
			pts[i] = append(geom.Point(nil), pts[rng.Intn(i)]...)
		}
	}
	return pts
}

// NearDegenerate returns n points in the unit d-ball with every coordinate
// snapped to a multiple of quantum (<= 0 selects 2^-6). Snapping to a
// power-of-two grid is exact in binary floating point, so the cloud carries
// many exactly collinear and coplanar subsets and exact duplicates — dense
// exact-predicate fallback traffic for the plane-cache epsilon band, while
// staying inside the engines' documented accept-or-reject behavior.
func NearDegenerate(rng *rand.Rand, n, d int, quantum float64) []geom.Point {
	if quantum <= 0 {
		quantum = 0x1p-6
	}
	pts := UniformBall(rng, n, d)
	for _, p := range pts {
		for j := range p {
			p[j] = math.Round(p[j]/quantum) * quantum
		}
	}
	return pts
}

// Cospherical returns n points on the unit (d-1)-sphere with every
// coordinate snapped to a power-of-two grid (quantum <= 0 selects 2^-10).
// Unlike OnSphere — whose points are only cospherical up to normalization
// rounding — the snapped cloud carries many exactly equal coordinates,
// exactly antipodal and mirrored pairs, and near-ties on every facet plane,
// so the static filter's epsilon band fills up and the exact-fallback rate
// spikes. Every point is still (near) boundary, the adversarial regime for
// incremental insertion.
func Cospherical(rng *rand.Rand, n, d int, quantum float64) []geom.Point {
	if quantum <= 0 {
		quantum = 0x1p-10
	}
	pts := OnSphere(rng, n, d)
	for _, p := range pts {
		for j := range p {
			p[j] = math.Round(p[j]/quantum) * quantum
		}
	}
	return pts
}

// IntegerLattice returns n points with integer coordinates drawn uniformly
// from {0, ..., k-1}^d (k <= 0 selects the smallest k with at least n lattice
// points). Small-integer coordinates are exact in floating point, so the
// cloud is saturated with exact ties: duplicate points, collinear triples,
// coplanar quadruples on every axis-aligned and diagonal line — the
// everything-is-degenerate input the engines must reject or resolve exactly.
func IntegerLattice(rng *rand.Rand, n, d, k int) []geom.Point {
	if k <= 0 {
		// Smallest k with k^d >= n, so the lattice is dense with duplicates
		// without collapsing to a single cell.
		for k = 2; math.Pow(float64(k), float64(d)) < float64(n); k++ {
		}
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, d)
		for j := range p {
			p[j] = float64(rng.Intn(k))
		}
		pts[i] = p
	}
	return pts
}

// CollinearHeavy returns n points of which roughly frac lie exactly on the
// line through two earlier points (frac outside (0, 1) selects 0.5): each
// such point is a + t*(b-a) with a dyadic t and integer-lattice base points,
// so the collinearity is exact in floating point, not approximate. The rest
// of the cloud is the integer lattice itself, so degenerate triples are the
// rule, not the exception.
func CollinearHeavy(rng *rand.Rand, n, d int, frac float64) []geom.Point {
	if frac <= 0 || frac >= 1 {
		frac = 0.5
	}
	pts := IntegerLattice(rng, n, d, 0)
	for i := 2; i < len(pts); i++ {
		if rng.Float64() >= frac {
			continue
		}
		a, b := pts[rng.Intn(i)], pts[rng.Intn(i)]
		t := dyadic(rng)
		p := make(geom.Point, d)
		for j := range p {
			p[j] = a[j] + t*(b[j]-a[j])
		}
		pts[i] = p
	}
	return pts
}

// CoplanarHeavy returns n points (d >= 3) of which roughly frac lie exactly
// on the plane of three earlier points: a + u*(b-a) + v*(c-a) with dyadic
// u, v over integer-lattice base points — exact coplanarity, the Section 6
// regime in arbitrary dimension. For d < 3 it degrades to CollinearHeavy.
func CoplanarHeavy(rng *rand.Rand, n, d int, frac float64) []geom.Point {
	if d < 3 {
		return CollinearHeavy(rng, n, d, frac)
	}
	if frac <= 0 || frac >= 1 {
		frac = 0.5
	}
	pts := IntegerLattice(rng, n, d, 0)
	for i := 3; i < len(pts); i++ {
		if rng.Float64() >= frac {
			continue
		}
		a, b, c := pts[rng.Intn(i)], pts[rng.Intn(i)], pts[rng.Intn(i)]
		u, v := dyadic(rng), dyadic(rng)
		p := make(geom.Point, d)
		for j := range p {
			p[j] = a[j] + u*(b[j]-a[j]) + v*(c[j]-a[j])
		}
		pts[i] = p
	}
	return pts
}

// dyadic returns a small random multiple of 2^-4 in (0, 2): affine weights
// that keep lattice-based combinations exact in floating point (integer
// differences scaled by dyadic rationals round nowhere).
func dyadic(rng *rand.Rand) float64 {
	return float64(1+rng.Intn(31)) * 0x1p-4
}

// gaussianDir returns a uniformly random unit vector in R^d.
func gaussianDir(rng *rand.Rand, d int) geom.Point {
	for {
		p := make(geom.Point, d)
		var n2 float64
		for j := range p {
			p[j] = rng.NormFloat64()
			n2 += p[j] * p[j]
		}
		if n2 > 1e-30 {
			inv := 1 / math.Sqrt(n2)
			for j := range p {
				p[j] *= inv
			}
			return p
		}
	}
}

// OnCircle returns n points on the unit circle at uniformly random angles
// (the 2D worst case: the hull contains all points).
func OnCircle(rng *rand.Rand, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		a := 2 * math.Pi * rng.Float64()
		pts[i] = geom.Point{math.Cos(a), math.Sin(a)}
	}
	return pts
}

// Grid3D returns the k x k x k integer lattice — the canonical degenerate
// 3D input for Section 6 (many coplanar and collinear point groups).
func Grid3D(k int) []geom.Point {
	pts := make([]geom.Point, 0, k*k*k)
	for x := 0; x < k; x++ {
		for y := 0; y < k; y++ {
			for z := 0; z < k; z++ {
				pts = append(pts, geom.Point{float64(x), float64(y), float64(z)})
			}
		}
	}
	return pts
}

// CoplanarBox3D returns n random points on the faces of the unit cube in 3D:
// a degenerate input in which each hull face carries many coplanar points.
func CoplanarBox3D(rng *rand.Rand, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		face := rng.Intn(6)
		u, v := rng.Float64(), rng.Float64()
		axis, side := face/2, float64(face%2)
		p := geom.Point{0, 0, 0}
		p[axis] = side
		p[(axis+1)%3] = u
		p[(axis+2)%3] = v
		pts[i] = p
	}
	return pts
}

// Collinear2D returns n points on the segment from a to b (inclusive of the
// endpoints), a degenerate input that the general-position engines must
// reject or handle via their documented error paths.
func Collinear2D(a, b geom.Point, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		t := float64(i) / float64(n-1)
		pts[i] = geom.Point{a[0] + t*(b[0]-a[0]), a[1] + t*(b[1]-a[1])}
	}
	return pts
}

// Perm returns a uniformly random permutation of {0, ..., n-1}. The
// randomized incremental algorithms insert points in this order; Theorem 4.2
// is a statement over this distribution.
func Perm(rng *rand.Rand, n int) []int {
	return rng.Perm(n)
}

// PermInto is Perm writing into buf (reused when its capacity allows). It
// replays rand.Perm's exact construction, so for the same rng state it
// produces the identical permutation — pooled callers (parhull.Builder) stay
// byte-compatible with the allocating path.
func PermInto(rng *rand.Rand, n int, buf []int) []int {
	if cap(buf) < n {
		buf = make([]int, n)
	}
	m := buf[:n]
	// The i = 0 iteration only writes m[0] = 0, but its Intn(1) call advances
	// the rng state; skipping it would desync from rand.Perm's stream.
	for i := 0; i < n; i++ {
		j := rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}

// ApplyPerm returns pts reordered so result[i] = pts[perm[i]].
func ApplyPerm(pts []geom.Point, perm []int) []geom.Point {
	return ApplyPermInto(pts, perm, nil)
}

// ApplyPermInto is ApplyPerm writing into buf (reused when its capacity
// allows).
func ApplyPermInto(pts []geom.Point, perm []int, buf []geom.Point) []geom.Point {
	if cap(buf) < len(perm) {
		buf = make([]geom.Point, len(perm))
	}
	out := buf[:len(perm)]
	for i, p := range perm {
		out[i] = pts[p]
	}
	return out
}

// Shuffled returns a shuffled copy of pts.
func Shuffled(rng *rand.Rand, pts []geom.Point) []geom.Point {
	return ApplyPerm(pts, Perm(rng, len(pts)))
}

// liftMaxExp bounds the lifted coordinates: below 2^liftMaxExp in x and y,
// the lift stays finite, and so do the plane evaluations over it (products
// of up to four coordinates).
const liftMaxExp = 240

// Lift2D lifts 2D points onto the paraboloid z = x^2 + y^2. The lower hull
// of the lifted points is the Delaunay triangulation of the originals, which
// is how package delaunay runs on the hull kernel. A cloud with a
// coordinate of 2^240 or more is first scaled down by one power of two, so
// that no square overflows; such a scale changes no Orient2D or InCircle
// sign. The lifts share one backing array.
func Lift2D(pts []geom.Point) []geom.Point {
	m := 0.0
	for _, p := range pts {
		m = max(m, math.Abs(p[0]), math.Abs(p[1]))
	}
	_, e := math.Frexp(m) // m < 2^e
	s := math.Ldexp(1, min(0, liftMaxExp-e))
	flat := make([]float64, 3*len(pts))
	out := make([]geom.Point, len(pts))
	for i, p := range pts {
		x, y := s*p[0], s*p[1]
		l := flat[3*i : 3*i+3 : 3*i+3]
		l[0], l[1], l[2] = x, y, x*x+y*y
		out[i] = l
	}
	return out
}

// RegularPolygon returns the vertices of a regular n-gon on the unit circle
// starting at angle phase — a deterministic all-on-hull 2D input.
func RegularPolygon(n int, phase float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		a := phase + 2*math.Pi*float64(i)/float64(n)
		pts[i] = geom.Point{math.Cos(a), math.Sin(a)}
	}
	return pts
}

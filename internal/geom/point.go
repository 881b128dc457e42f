// Package geom provides the geometric primitives used by the convex hull,
// half-space intersection, and circle intersection engines: points in R^d,
// vector arithmetic, and exact sign-of-determinant orientation predicates.
//
// All branch decisions in the incremental algorithms go through the
// predicates in this package. Each predicate first evaluates a fast float64
// expression guarded by a forward error bound; if the sign cannot be
// certified, it falls back to exact integer arithmetic (math/big.Int over
// the coordinates scaled to integers: Bareiss elimination for orientation,
// cofactor expansion for the in-circle), so the combinatorial structure
// computed by the algorithms is identical to the ideal real-RAM algorithm on
// every float64 input.
package geom

import (
	"errors"
	"fmt"
	"math"
)

// Point is a point (or vector) in R^d, represented by its d Cartesian
// coordinates. The dimension is len(p).
type Point []float64

// ErrBadCoordinate is returned when an input point has a NaN or infinite
// coordinate, which the predicates cannot order consistently.
var ErrBadCoordinate = errors.New("geom: point has NaN or infinite coordinate")

// ErrBadDimension is returned when a point cloud's dimension is unsupported
// (d < 2) or a point's dimension differs from the cloud's.
var ErrBadDimension = errors.New("geom: bad dimension")

// Dim returns the dimension of p.
func (p Point) Dim() int { return len(p) }

// Clone returns a copy of p.
func (p Point) Clone() Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// Sub returns p - q as a new point.
func (p Point) Sub(q Point) Point {
	r := make(Point, len(p))
	for i := range p {
		r[i] = p[i] - q[i]
	}
	return r
}

// Add returns p + q as a new point.
func (p Point) Add(q Point) Point {
	r := make(Point, len(p))
	for i := range p {
		r[i] = p[i] + q[i]
	}
	return r
}

// Scale returns s*p as a new point.
func (p Point) Scale(s float64) Point {
	r := make(Point, len(p))
	for i := range p {
		r[i] = s * p[i]
	}
	return r
}

// Dot returns the inner product of p and q.
func (p Point) Dot(q Point) float64 {
	var s float64
	for i := range p {
		s += p[i] * q[i]
	}
	return s
}

// Norm2 returns the squared Euclidean norm of p.
func (p Point) Norm2() float64 { return p.Dot(p) }

// Norm returns the Euclidean norm of p.
func (p Point) Norm() float64 { return math.Sqrt(p.Norm2()) }

// Finite reports whether every coordinate of p is a finite float64.
func (p Point) Finite() bool {
	for _, c := range p {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return false
		}
	}
	return true
}

// Equal reports whether p and q have identical coordinates.
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// String formats p as "(x0, x1, ...)".
func (p Point) String() string {
	s := "("
	for i, c := range p {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%g", c)
	}
	return s + ")"
}

// CentroidInto writes the arithmetic mean of pts, which must be non-empty
// and share a dimension, into dst's storage (grown as needed) and returns
// it.
func CentroidInto(dst Point, pts []Point) Point {
	d := len(pts[0])
	if cap(dst) < d {
		dst = make(Point, d)
	}
	c := dst[:d]
	clear(c)
	for _, p := range pts {
		for i := 0; i < d; i++ {
			c[i] += p[i]
		}
	}
	inv := 1 / float64(len(pts))
	for i := range c {
		c[i] *= inv
	}
	return c
}

// ValidateCloud checks that pts is a non-empty set of finite points of the
// common dimension d. It is the shared input check used at API boundaries.
func ValidateCloud(pts []Point, d int) error {
	if d < 2 {
		return fmt.Errorf("%w: %d not supported (need d >= 2)", ErrBadDimension, d)
	}
	for i, p := range pts {
		if len(p) != d {
			return fmt.Errorf("%w: point %d has dimension %d, want %d", ErrBadDimension, i, len(p), d)
		}
		if !p.Finite() {
			return fmt.Errorf("geom: point %d: %w", i, ErrBadCoordinate)
		}
	}
	return nil
}

// Package certify independently verifies engine outputs against the raw
// input cloud, trusting nothing the engine computed: supporting hyperplanes
// are rebuilt from the input coordinates, side tests run through a float
// screen with an exact big.Int fallback (internal/geom), and the companion
// configuration spaces are checked against the brute-force T(X) oracle
// (internal/core). Violations carry a typed kind and the offending facet and
// point indices, so a soak failure pinpoints itself.
//
// # What is proven, what is trusted
//
// For hulls (Hull, Hull2D) the certificate is complete in general position:
// every facet is supported by d affinely independent input points, no input
// point lies strictly outside any facet, and every ridge is shared by
// exactly two facets. A supported facet is a face of conv(P); a nonempty
// ridge-closed facet family whose facets are faces of the (connected) hull
// boundary and which keeps all of P on one closed side is the whole
// boundary complex — any proper subfamily has an open ridge. Side tests are
// exact (float screen, big.Int fallback), never the engine's cached planes.
//
// The halfspace checker re-solves every vertex exactly in rationals, checks
// feasibility against all halfspaces exactly, and cross-checks duality by
// certifying the defining sets as the facet complex of the hull of the
// normal vectors. The Delaunay checker is likewise exact (in-circle via
// geom.InCircle, exact partition area in big.Rat). The trapezoid and corner
// checkers compare against the brute-force T(X) oracle, so they prove
// equality with the reference semantics of the space, trusting the space's
// own cell geometry. The circles checker is a float screen only (arc
// endpoints and midpoints tested with a fixed tolerance) — documented here
// because circle intersections are irrational, so no exact certificate is
// available without algebraic numbers.
package certify

import "fmt"

// Kind classifies a certification violation.
type Kind int

const (
	// BadIndex: a vertex/object index is out of range or repeated.
	BadIndex Kind = iota
	// BadSupport: a facet's defining points are affinely dependent (no
	// supporting hyperplane separates anything), or a defining set is
	// singular/duplicated.
	BadSupport
	// Outside: an input point lies strictly outside a reported facet.
	Outside
	// RidgeOpen: a ridge is not shared by exactly two facets.
	RidgeOpen
	// NotConvex: consecutive 2D hull vertices are not strictly convex CCW.
	NotConvex
	// VertexSet: the reported vertex list does not match the facet union,
	// or a re-solved vertex location disagrees with the reported one.
	VertexSet
	// Incomplete: the result is structurally empty or too small to bound
	// anything.
	Incomplete
	// NotCCW: a Delaunay triangle is not strictly counterclockwise.
	NotCCW
	// CircleNotEmpty: an input point lies strictly inside a Delaunay
	// triangle's circumcircle.
	CircleNotEmpty
	// Infeasible: a halfspace-intersection vertex violates a halfspace.
	Infeasible
	// ArcBroken: a circle-intersection arc fails the boundary screen
	// (midpoint escapes a disk, or endpoints do not chain up).
	ArcBroken
	// CellMismatch: the trapezoid/corner result differs from the
	// brute-force T(X) oracle.
	CellMismatch
	// AreaMismatch: an exact partition-area identity fails.
	AreaMismatch
)

func (k Kind) String() string {
	switch k {
	case BadIndex:
		return "bad-index"
	case BadSupport:
		return "bad-support"
	case Outside:
		return "outside"
	case RidgeOpen:
		return "ridge-open"
	case NotConvex:
		return "not-convex"
	case VertexSet:
		return "vertex-set"
	case Incomplete:
		return "incomplete"
	case NotCCW:
		return "not-ccw"
	case CircleNotEmpty:
		return "circle-not-empty"
	case Infeasible:
		return "infeasible"
	case ArcBroken:
		return "arc-broken"
	case CellMismatch:
		return "cell-mismatch"
	case AreaMismatch:
		return "area-mismatch"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Error is a located certification violation. Facet indexes the offending
// facet / triangle / vertex / arc / cell of the checked result and Point the
// offending input point or object; either is -1 when not applicable.
type Error struct {
	Kind   Kind
	Facet  int
	Point  int
	Detail string
}

func (e *Error) Error() string {
	s := fmt.Sprintf("certify: %v", e.Kind)
	if e.Facet >= 0 {
		s += fmt.Sprintf(" at facet %d", e.Facet)
	}
	if e.Point >= 0 {
		s += fmt.Sprintf(" point %d", e.Point)
	}
	if e.Detail != "" {
		s += ": " + e.Detail
	}
	return s
}

func violation(k Kind, facet, point int, format string, args ...any) *Error {
	return &Error{Kind: k, Facet: facet, Point: point, Detail: fmt.Sprintf(format, args...)}
}

// Stats instruments a certification pass: how many side tests ran and how
// many fell through the float screen to the exact predicate. The soak
// driver surfaces the fallback rate so a loosened filter shows up as drift
// even while answers stay right.
type Stats struct {
	SideTests      int
	ExactFallbacks int
}

func (s *Stats) add(o Stats) {
	s.SideTests += o.SideTests
	s.ExactFallbacks += o.ExactFallbacks
}

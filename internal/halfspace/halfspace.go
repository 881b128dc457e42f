// Package halfspace implements Section 7's half-space intersection: finding
// the common intersection of half-spaces {x : a·x <= 1} in R^d (all of which
// contain the origin).
//
// Two routes are provided, as in the paper:
//
//   - Duality: the intersection polytope is the dual of the convex hull of
//     the normal vectors a_i, so the hull engines do the work and inherit
//     all of their guarantees — including the O(log n) dependence depth of
//     Theorem 1.1. The public parhull.HalfspaceIntersection builds that hull
//     like any other (parhull.HullD), and Vertex dualizes each facet back to
//     a vertex, rejecting input whose intersection is unbounded.
//   - The direct configuration space (Space): objects are half-spaces,
//     configurations are vertices defined by d boundary hyperplanes, and a
//     configuration conflicts with every half-space that does not contain
//     its vertex. The paper shows this space has 2-support; the tests verify
//     that by brute force, and core.Simulate measures its dependence depth.
//
// The intersection must be bounded and the origin strictly interior, which
// holds exactly when the normals' convex hull strictly contains the origin
// (the generators in pointgen guarantee this by covering the sphere).
package halfspace

import (
	"fmt"
	"math/big"
	"slices"

	"parhull/internal/geom"
)

// BoundingSimplex returns d+1 normals whose halfspaces {a·x <= 1} form a
// bounded simplex around the origin (the unit axis directions plus the
// all-minus-one vector, which positively span R^d). Prepending these to the
// insertion order keeps every prefix intersection bounded — the substitution
// this package uses instead of the paper's boundary configurations
// ("configurations with d-1 half-spaces and a direction", Section 7), which
// only matter for unbounded prefixes.
func BoundingSimplex(d int) []geom.Point {
	out := make([]geom.Point, 0, d+1)
	for i := 0; i < d; i++ {
		a := make(geom.Point, d)
		a[i] = 1
		out = append(out, a)
	}
	last := make(geom.Point, d)
	for i := range last {
		last[i] = -1
	}
	return append(out, last)
}

// Vertex dualizes one facet of the convex hull of normals — the d
// half-spaces idx — back to the vertex of the intersection of
// {x : normals[i]·x <= 1} where their boundaries meet, solved in exact
// rational arithmetic and rounded to float64. The intersection is bounded
// exactly when the origin lies strictly inside the hull of the normals.
// When it does not, some facet's plane passes through the origin (its
// system is singular) or separates the origin from the hull (every normal
// off the facet has w·v > 1), and Vertex returns ErrDegenerate for that
// facet. Every normal off a facet lies on the hull's side of its plane, so
// one of them — the first index not in idx — decides the side, at O(d)
// rational products. normals must hold at least d+1 points, as any hull
// does.
func Vertex(normals []geom.Point, idx []int) (geom.Point, error) {
	sol, ok := solve(normals, idx)
	if !ok {
		return nil, fmt.Errorf("%w: half-spaces %v have linearly dependent normals (the intersection is unbounded)", ErrDegenerate, idx)
	}
	w := 0
	for slices.Contains(idx, w) {
		w++
	}
	dot := new(big.Rat)
	for c, x := range sol {
		a := new(big.Rat).SetFloat64(normals[w][c])
		dot.Add(dot, a.Mul(a, x))
	}
	if dot.Cmp(big.NewRat(1, 1)) >= 0 {
		return nil, fmt.Errorf("%w: the vertex of half-spaces %v is not strictly inside half-space %d (the intersection is unbounded or degenerate)", ErrDegenerate, idx, w)
	}
	out := make(geom.Point, len(sol))
	for i, r := range sol {
		out[i], _ = r.Float64()
	}
	return out, nil
}

// solve solves normals[id]·x = 1 for the d half-spaces id in idx exactly,
// reporting false when their normals are linearly dependent.
func solve(normals []geom.Point, idx []int) ([]*big.Rat, bool) {
	d := len(normals[0])
	m := make([][]*big.Rat, d)
	for r, id := range idx {
		row := make([]*big.Rat, d+1)
		for c := 0; c < d; c++ {
			row[c] = new(big.Rat).SetFloat64(normals[id][c])
		}
		row[d] = big.NewRat(1, 1)
		m[r] = row
	}
	return ratSolve(m, d)
}

// ratSolve performs exact Gaussian elimination on the augmented d x (d+1)
// system, returning the solution vector or ok=false if singular.
func ratSolve(m [][]*big.Rat, d int) ([]*big.Rat, bool) {
	for col := 0; col < d; col++ {
		piv := -1
		for r := col; r < d; r++ {
			if m[r][col].Sign() != 0 {
				piv = r
				break
			}
		}
		if piv == -1 {
			return nil, false
		}
		m[piv], m[col] = m[col], m[piv]
		for r := 0; r < d; r++ {
			if r == col || m[r][col].Sign() == 0 {
				continue
			}
			f := new(big.Rat).Quo(m[r][col], m[col][col])
			for c := col; c <= d; c++ {
				t := new(big.Rat).Mul(f, m[col][c])
				m[r][c] = new(big.Rat).Sub(m[r][c], t)
			}
		}
	}
	sol := make([]*big.Rat, d)
	for i := 0; i < d; i++ {
		sol[i] = new(big.Rat).Quo(m[i][d], m[i][i])
	}
	return sol, true
}

// Contains reports whether point p satisfies normal·p <= 1, exactly.
func Contains(normal geom.Point, p geom.Point) bool {
	dot := new(big.Rat)
	for i := range normal {
		a := new(big.Rat).SetFloat64(normal[i])
		b := new(big.Rat).SetFloat64(p[i])
		dot.Add(dot, a.Mul(a, b))
	}
	return dot.Cmp(big.NewRat(1, 1)) <= 0
}

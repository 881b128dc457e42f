package halfspace

import (
	"errors"
	"fmt"
	"math"
	"math/big"

	"parhull/internal/geom"
)

// ErrDegenerate reports input the vertex space cannot represent. Returned
// wrapped, with detail; the public layer maps it onto parhull.ErrDegenerate.
var ErrDegenerate = errors.New("halfspace: degenerate input")

// Space is the direct configuration space for half-space intersection
// (Section 7): objects are half-spaces {x : a·x <= 1}, configurations are
// the vertices defined by d of their boundary hyperplanes, and a
// configuration conflicts with every half-space whose constraint its vertex
// violates. It implements core.Space (plus engine.ConflictScanner); every
// conflict answer is exact — the scanner's float screen only decides which
// tests need the rational arithmetic.
type Space struct {
	normals []geom.Point
	d       int
	subsets [][]int
	verts   [][]*big.Rat // exact vertex per subset
	// Static-filter state for FirstConflict: the rounded float vertex per
	// configuration (d-strided), its max coordinate magnitude, and each
	// normal's 1-norm. |float(a·v) - a·v| <= (2d+2)u * |a|_1 * max|v_i| (d
	// rounding steps in the dot, one per rounded vertex coordinate), so a
	// threshold of 4(d+3)u * |a|_1 * max|v_i| certifies the comparison
	// against 1 with slack.
	fverts []float64
	vmax   []float64
	absSum []float64
}

// NewSpace enumerates the configuration space of the given halfspace
// normals. Subsets with linearly dependent normals define no vertex and are
// excluded (in general position there are none).
func NewSpace(normals []geom.Point) (*Space, error) {
	if len(normals) == 0 {
		return nil, errEmpty
	}
	d := len(normals[0])
	if err := geom.ValidateCloud(normals, d); err != nil {
		return nil, err
	}
	s := &Space{normals: normals, d: d}
	subset := make([]int, d)
	var rec func(start, k int)
	rec = func(start, k int) {
		if k == d {
			if sol, ok := solve(normals, subset); ok {
				s.subsets = append(s.subsets, append([]int(nil), subset...))
				s.verts = append(s.verts, sol)
				vmax := 0.0
				for _, v := range sol {
					f, _ := v.Float64()
					s.fverts = append(s.fverts, f)
					if a := math.Abs(f); a > vmax {
						vmax = a
					}
				}
				s.vmax = append(s.vmax, vmax)
			}
			return
		}
		for i := start; i < len(normals); i++ {
			subset[k] = i
			rec(i+1, k+1)
		}
	}
	rec(0, 0)
	s.absSum = make([]float64, len(normals))
	for i, a := range normals {
		sum := 0.0
		for _, x := range a {
			sum += math.Abs(x)
		}
		s.absSum[i] = sum
	}
	return s, nil
}

var errEmpty = fmt.Errorf("%w: no halfspaces given", ErrDegenerate)

// NumObjects implements core.Space.
func (s *Space) NumObjects() int { return len(s.normals) }

// NumConfigs implements core.Space.
func (s *Space) NumConfigs() int { return len(s.subsets) }

// Defining implements core.Space.
func (s *Space) Defining(c int) []int { return s.subsets[c] }

// InConflict implements core.Space: halfspace x conflicts with vertex c iff
// a_x · v(c) > 1, evaluated exactly.
func (s *Space) InConflict(c, x int) bool {
	for _, o := range s.subsets[c] {
		if o == x {
			return false
		}
	}
	return s.conflictExact(c, x)
}

// conflictExact is the rational comparison a_x · v(c) > 1.
func (s *Space) conflictExact(c, x int) bool {
	dot := new(big.Rat)
	for i := 0; i < s.d; i++ {
		a := new(big.Rat).SetFloat64(s.normals[x][i])
		dot.Add(dot, a.Mul(a, s.verts[c][i]))
	}
	return dot.Cmp(big.NewRat(1, 1)) > 0
}

// FirstConflict implements engine.ConflictScanner: the vertex decode happens
// once, and each object is screened by a float dot product with a static
// error threshold — only comparisons the filter cannot certify fall back to
// the exact big.Rat arithmetic, which for random inputs is almost none of
// them (versus all of them through InConflict).
func (s *Space) FirstConflict(c int, order []int) int {
	def := s.subsets[c]
	vf := s.fverts[c*s.d : (c+1)*s.d]
	const u = 0x1p-53
	k := 4 * float64(s.d+3) * u * s.vmax[c]
	for r, x := range order {
		skip := false
		for _, o := range def {
			if o == x {
				skip = true
				break
			}
		}
		if skip {
			continue
		}
		a := s.normals[x]
		dot := 0.0
		for i := 0; i < s.d; i++ {
			dot += a[i] * vf[i]
		}
		eps := k * s.absSum[x]
		if dot > 1+eps {
			return r
		}
		if dot >= 1-eps && s.conflictExact(c, x) {
			return r
		}
	}
	return len(order)
}

// Vertex returns configuration c's vertex rounded to float64 coordinates.
func (s *Space) Vertex(c int) geom.Point {
	return geom.Point(append([]float64(nil), s.fverts[c*s.d:(c+1)*s.d]...))
}

// Degree implements core.Space: g = d.
func (s *Space) Degree() int { return s.d }

// Multiplicity implements core.Space: each subset defines one vertex.
func (s *Space) Multiplicity() int { return 1 }

// BaseSize implements core.Space: n_b = d+1 (the smallest bounded
// intersection).
func (s *Space) BaseSize() int { return s.d + 1 }

// MaxSupport implements core.Space: k = 2 (Section 7).
func (s *Space) MaxSupport() int { return 2 }

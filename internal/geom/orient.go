package geom

import "math"

// Machine epsilon for float64 (2^-53), the unit roundoff used by the static
// error filters below. The filter constants for Orient2D and Orient3D follow
// Shewchuk, "Adaptive Precision Floating-Point Arithmetic and Fast Robust
// Geometric Predicates" (1997); the general-dimension filter uses a
// deliberately conservative Hadamard-style bound (see orientDFloat).
const epsilon = 1.1102230246251565e-16 // 2^-53

var (
	ccwErrBoundA = (3 + 16*epsilon) * epsilon
	o3dErrBoundA = (7 + 56*epsilon) * epsilon
)

// Orient2D returns the sign (+1, 0, -1) of the signed area of triangle
// (a, b, c): +1 if c lies to the left of the directed line a->b, -1 if to
// the right, 0 if the three points are collinear. The result is exact.
func Orient2D(a, b, c Point) int {
	detl := (a[0] - c[0]) * (b[1] - c[1])
	detr := (a[1] - c[1]) * (b[0] - c[0])
	det := detl - detr
	if detl > 0 {
		if detr <= 0 {
			return sign(det)
		}
	} else if detl < 0 {
		if detr >= 0 {
			return sign(det)
		}
	} else {
		return sign(det)
	}
	detsum := math.Abs(detl) + math.Abs(detr)
	if math.Abs(det) >= ccwErrBoundA*detsum {
		return sign(det)
	}
	return orientExact([]Point{a, b}, c)
}

// Orient3D returns the sign of the determinant
//
//	| a-d |
//	| b-d |
//	| c-d |
//
// which is positive when d sees the triangle (a, b, c) in counterclockwise
// order (d is below the plane oriented by the right-hand rule on a, b, c).
// The result is exact.
func Orient3D(a, b, c, d Point) int {
	adx, ady, adz := a[0]-d[0], a[1]-d[1], a[2]-d[2]
	bdx, bdy, bdz := b[0]-d[0], b[1]-d[1], b[2]-d[2]
	cdx, cdy, cdz := c[0]-d[0], c[1]-d[1], c[2]-d[2]

	bdxcdy := bdx * cdy
	cdxbdy := cdx * bdy
	cdxady := cdx * ady
	adxcdy := adx * cdy
	adxbdy := adx * bdy
	bdxady := bdx * ady

	det := adz*(bdxcdy-cdxbdy) + bdz*(cdxady-adxcdy) + cdz*(adxbdy-bdxady)

	permanent := (math.Abs(bdxcdy)+math.Abs(cdxbdy))*math.Abs(adz) +
		(math.Abs(cdxady)+math.Abs(adxcdy))*math.Abs(bdz) +
		(math.Abs(adxbdy)+math.Abs(bdxady))*math.Abs(cdz)
	if math.Abs(det) >= o3dErrBoundA*permanent {
		return sign(det)
	}
	// orientExact evaluates det[b-a; c-a; d-a], the negation of det[a-d;
	// b-d; c-d].
	return -orientExact([]Point{a, b, c}, d)
}

// OrientSimplex returns the sign of the d x d determinant whose rows are
// verts[1]-verts[0], ..., verts[d-1]-verts[0], p-verts[0], where
// d = len(p) and len(verts) == d. For d == 2 it equals
// Orient2D(verts[0], verts[1], p); for d == 3 it equals
// -Orient3D(verts[0], verts[1], verts[2], p) up to the row-order convention
// documented below. The result is exact.
//
// Convention: the rows are listed base-first, so the sign is positive when p
// is on the positive side of the oriented hyperplane spanned (in order) by
// the edge vectors out of verts[0].
func OrientSimplex(verts []Point, p Point) int {
	d := len(p)
	switch d {
	case 2:
		return Orient2D(verts[0], verts[1], p)
	case 3:
		// Rows v1-v0, v2-v0, p-v0: this is the standard 3x3 orientation
		// determinant det[b-a; c-a; p-a].
		return orient3Rows(verts[0], verts[1], verts[2], p)
	default:
		s, ok := orientDFloat(verts, p)
		if ok {
			return s
		}
		return orientExact(verts, p)
	}
}

// orient3Rows computes sign det[b-a; c-a; p-a] exactly, reusing the Orient3D
// filter via the identity det[b-a; c-a; p-a] = -det[a-p; b-p; c-p].
func orient3Rows(a, b, c, p Point) int {
	return -Orient3D(a, b, c, p)
}

// orientDFloat evaluates the general-dimension orientation determinant in
// float64 using Gaussian elimination with partial pivoting, certifying the
// sign with a conservative Hadamard-style error bound. It reports ok=false
// when the sign cannot be certified.
func orientDFloat(verts []Point, p Point) (s int, ok bool) {
	d := len(p)
	// Build the matrix of difference rows.
	m := make([]float64, d*d)
	had := 1.0 // product of row 2-norms (Hadamard bound on |det|)
	for i := 0; i < d; i++ {
		var src Point
		if i < d-1 {
			src = verts[i+1]
		} else {
			src = p
		}
		var rn float64
		for j := 0; j < d; j++ {
			v := src[j] - verts[0][j]
			m[i*d+j] = v
			rn += v * v
		}
		had *= math.Sqrt(rn)
	}
	det, growth := detGEPP(m, d)
	// Conservative forward bound: c(d) * u * growth-adjusted Hadamard bound.
	// The constant d^3 dominates the O(d^2) elementary-op error accumulation
	// with a wide margin; growth tracks pivot amplification.
	bound := float64(d*d*d) * epsilon * math.Max(had, growth)
	if math.Abs(det) > bound {
		return sign(det), true
	}
	return 0, false
}

// detGEPP computes the determinant of the d x d row-major matrix m in place
// using Gaussian elimination with partial pivoting. It also returns a growth
// measure (the maximum absolute entry seen during elimination, raised to the
// power d) used by the caller's error bound.
func detGEPP(m []float64, d int) (det, growth float64) {
	det = 1
	maxEntry := 0.0
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			if a := math.Abs(m[i*d+j]); a > maxEntry {
				maxEntry = a
			}
		}
	}
	for col := 0; col < d; col++ {
		// Partial pivot.
		piv, pivAbs := col, math.Abs(m[col*d+col])
		for r := col + 1; r < d; r++ {
			if a := math.Abs(m[r*d+col]); a > pivAbs {
				piv, pivAbs = r, a
			}
		}
		if pivAbs == 0 {
			return 0, math.Pow(maxEntry, float64(d))
		}
		if piv != col {
			for j := col; j < d; j++ {
				m[piv*d+j], m[col*d+j] = m[col*d+j], m[piv*d+j]
			}
			det = -det
		}
		pv := m[col*d+col]
		det *= pv
		for r := col + 1; r < d; r++ {
			f := m[r*d+col] / pv
			m[r*d+col] = 0
			for j := col + 1; j < d; j++ {
				m[r*d+j] -= f * m[col*d+j]
				if a := math.Abs(m[r*d+j]); a > maxEntry {
					maxEntry = a
				}
			}
		}
	}
	return det, math.Pow(maxEntry, float64(d))
}

func sign(x float64) int {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	default:
		return 0
	}
}

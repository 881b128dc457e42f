package geom

import (
	"math"
	"math/big"
)

// The exact predicates evaluate their determinants over the integers: every
// float64 is m·2^e with an integer m of at most 53 bits, so scaling all of a
// call's coordinates by 2^-emin — emin the lowest exponent among them —
// turns each into an exact integer, and a positive common scale leaves the
// sign of the determinant unchanged. big.Int arithmetic then needs no GCD
// normalization, which is what made the rational versions (kept in the test
// files as references) slow on co-circular and coplanar inputs.

// minExp returns the smaller of e and the lowest k such that some
// coordinate of q has a set bit of weight 2^k, so every coordinate of q is
// an integer multiple of 2^minExp(e, q). Folds start from math.MaxInt;
// zeros leave e alone.
func minExp(e int, q Point) int {
	for _, x := range q {
		if x != 0 {
			_, ex := math.Frexp(x)
			e = min(e, ex-53) // x = (x·2^(53-ex))·2^(ex-53), an integer times 2^(ex-53)
		}
	}
	return e
}

// setScaled sets z to x·2^-e, an integer when e comes from minExp.
func setScaled(z *big.Int, x float64, e int) *big.Int {
	if x == 0 {
		return z.SetInt64(0)
	}
	frac, ex := math.Frexp(x)
	z.SetInt64(int64(frac * (1 << 53)))
	return z.Lsh(z, uint(ex-53-e))
}

// orientExact computes the sign of the d x d determinant with rows
// verts[1]-verts[0], ..., verts[d-1]-verts[0], p-verts[0] exactly, by
// fraction-free (Bareiss) elimination over the scaled integer coordinates:
// every division in it is exact, so entries stay integers no larger than
// the minors they equal.
func orientExact(verts []Point, p Point) int {
	d := len(p)
	e := minExp(math.MaxInt, p)
	for _, q := range verts[:d] {
		e = minExp(e, q)
	}
	buf := make([]big.Int, d*d+3)
	base, t, u := &buf[d*d], &buf[d*d+1], &buf[d*d+2]
	m := make([][]big.Int, d) // rows swap as slice headers, never as Ints
	for i := range m {
		m[i] = buf[i*d : (i+1)*d]
		src := p
		if i < d-1 {
			src = verts[i+1]
		}
		for j := range m[i] {
			setScaled(&m[i][j], src[j], e)
			m[i][j].Sub(&m[i][j], setScaled(base, verts[0][j], e))
		}
	}
	s := 1
	prev := big.NewInt(1)
	for k := 0; k < d-1; k++ {
		piv := k
		for piv < d && m[piv][k].Sign() == 0 {
			piv++
		}
		if piv == d {
			return 0
		}
		if piv != k {
			m[piv], m[k] = m[k], m[piv]
			s = -s
		}
		for i := k + 1; i < d; i++ {
			for j := k + 1; j < d; j++ {
				t.Mul(&m[k][k], &m[i][j])
				u.Mul(&m[i][k], &m[k][j])
				m[i][j].Quo(t.Sub(t, u), prev)
			}
		}
		prev = &m[k][k]
	}
	return s * m[d-1][d-1].Sign()
}

// InCircle returns the sign of the standard 2D in-circle determinant:
// +1 if p lies strictly inside the circle through a, b, c (assumed in
// counterclockwise order), -1 if strictly outside, 0 if on the circle.
// If (a, b, c) are clockwise the sign is flipped, matching the usual
// convention sign = Orient2D(a,b,c) * inside. The result is exact.
func InCircle(a, b, c, p Point) int {
	adx, ady := a[0]-p[0], a[1]-p[1]
	bdx, bdy := b[0]-p[0], b[1]-p[1]
	cdx, cdy := c[0]-p[0], c[1]-p[1]

	bdxcdy := bdx * cdy
	cdxbdy := cdx * bdy
	alift := adx*adx + ady*ady

	cdxady := cdx * ady
	adxcdy := adx * cdy
	blift := bdx*bdx + bdy*bdy

	adxbdy := adx * bdy
	bdxady := bdx * ady
	clift := cdx*cdx + cdy*cdy

	det := alift*(bdxcdy-cdxbdy) + blift*(cdxady-adxcdy) + clift*(adxbdy-bdxady)

	permanent := (abs(bdxcdy)+abs(cdxbdy))*alift +
		(abs(cdxady)+abs(adxcdy))*blift +
		(abs(adxbdy)+abs(bdxady))*clift
	errBound := iccErrBoundA * permanent
	if det > errBound || -det > errBound {
		return sign(det)
	}
	return inCircleExact(a, b, c, p)
}

var iccErrBoundA = (10 + 96*epsilon) * epsilon

// inCircleExact is the in-circle determinant of InCircle, expanded along
// its lifted column over the scaled integer coordinates.
func inCircleExact(a, b, c, p Point) int {
	e := math.MaxInt
	for _, q := range [4]Point{a, b, c, p} {
		e = minExp(e, q)
	}
	var v [3][3]big.Int // rows a, b, c: dx, dy, dx^2 + dy^2
	var t, u big.Int
	for i, q := range [3]Point{a, b, c} {
		r := &v[i]
		r[0].Sub(setScaled(&r[0], q[0], e), setScaled(&t, p[0], e))
		r[1].Sub(setScaled(&r[1], q[1], e), setScaled(&t, p[1], e))
		r[2].Mul(&r[0], &r[0])
		r[2].Add(&r[2], t.Mul(&r[1], &r[1]))
	}
	var det big.Int
	for i := 0; i < 3; i++ {
		// cofactor of the lift of row i: the 2x2 minor of the other two
		// rows, signed +, -, + down the column.
		r, q := &v[(i+1)%3], &v[(i+2)%3]
		t.Mul(&r[0], &q[1])
		u.Mul(&r[1], &q[0])
		t.Sub(&t, &u)
		t.Mul(&t, &v[i][2])
		det.Add(&det, &t)
	}
	return det.Sign()
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

package geom

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// orientExactRat is the rational reference for orientExact: the same
// determinant by Gaussian elimination over big.Rat. float64 coordinates
// convert to big.Rat losslessly, so its sign is the true sign.
func orientExactRat(verts []Point, p Point) int {
	d := len(p)
	m := make([][]*big.Rat, d)
	base := verts[0]
	for i := 0; i < d; i++ {
		src := p
		if i < d-1 {
			src = verts[i+1]
		}
		row := make([]*big.Rat, d)
		for j := 0; j < d; j++ {
			a := new(big.Rat).SetFloat64(src[j])
			b := new(big.Rat).SetFloat64(base[j])
			row[j] = a.Sub(a, b)
		}
		m[i] = row
	}
	return ratDetSign(m)
}

// inCircleExactRat is the rational reference for inCircleExact.
func inCircleExactRat(a, b, c, p Point) int {
	m := make([][]*big.Rat, 3)
	px := new(big.Rat).SetFloat64(p[0])
	py := new(big.Rat).SetFloat64(p[1])
	for i, q := range []Point{a, b, c} {
		dx := new(big.Rat).SetFloat64(q[0])
		dx.Sub(dx, px)
		dy := new(big.Rat).SetFloat64(q[1])
		dy.Sub(dy, py)
		lift := new(big.Rat).Mul(dx, dx)
		lift.Add(lift, new(big.Rat).Mul(dy, dy))
		m[i] = []*big.Rat{dx, dy, lift}
	}
	return ratDetSign(m)
}

// ratDetSign returns the sign of the determinant of the square rational
// matrix m by Gaussian elimination over Q, destroying m.
func ratDetSign(m [][]*big.Rat) int {
	d := len(m)
	s := 1
	for col := 0; col < d; col++ {
		piv := -1
		for r := col; r < d; r++ {
			if m[r][col].Sign() != 0 {
				piv = r
				break
			}
		}
		if piv == -1 {
			return 0
		}
		if piv != col {
			m[piv], m[col] = m[col], m[piv]
			s = -s
		}
		pv := m[col][col]
		if pv.Sign() < 0 {
			s = -s
		}
		for r := col + 1; r < d; r++ {
			if m[r][col].Sign() == 0 {
				continue
			}
			f := new(big.Rat).Quo(m[r][col], pv)
			for j := col + 1; j < d; j++ {
				m[r][j].Sub(m[r][j], new(big.Rat).Mul(f, m[col][j]))
			}
			m[r][col].SetInt64(0)
		}
	}
	return s
}

// mixedCoord draws a coordinate whose binary exponent varies widely
// between calls and within one call, with zeros and exact small integers
// mixed in.
func mixedCoord(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return float64(rng.Intn(7) - 3)
	case 2:
		return math.Ldexp(rng.Float64()-0.5, rng.Intn(120)-60)
	case 3:
		return math.SmallestNonzeroFloat64 * float64(rng.Intn(5)-2)
	default:
		return rng.Float64()*2 - 1
	}
}

// TestInCircleExactMatchesRational compares the integer in-circle with the
// rational reference on points pushed onto, and a few ulps off, circles —
// the inputs where the float filter fails and the exact path decides —
// and on mixed-exponent and lattice inputs.
func TestInCircleExactMatchesRational(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	iters := 3000
	if testing.Short() {
		iters = 500
	}
	onCircle := func(cx, cy, r float64) Point {
		th := rng.Float64() * 2 * math.Pi
		x, y := cx+r*math.Cos(th), cy+r*math.Sin(th)
		for k := rng.Intn(3); k > 0; k-- {
			x = math.Nextafter(x, math.Inf(rng.Intn(2)*2-1))
		}
		return Point{x, y}
	}
	zeros := 0
	for i := 0; i < iters; i++ {
		var a, b, c, p Point
		switch i % 3 {
		case 0: // near co-circular, arbitrary centre and radius
			cx, cy := mixedCoord(rng), mixedCoord(rng)
			r := math.Ldexp(0.5+rng.Float64(), rng.Intn(40)-20)
			a, b, c, p = onCircle(cx, cy, r), onCircle(cx, cy, r), onCircle(cx, cy, r), onCircle(cx, cy, r)
		case 1: // mixed exponents
			a = Point{mixedCoord(rng), mixedCoord(rng)}
			b = Point{mixedCoord(rng), mixedCoord(rng)}
			c = Point{mixedCoord(rng), mixedCoord(rng)}
			p = Point{mixedCoord(rng), mixedCoord(rng)}
		default: // small lattice: many exactly co-circular quadruples
			l := func() float64 { return float64(rng.Intn(5) - 2) }
			a, b, c, p = Point{l(), l()}, Point{l(), l()}, Point{l(), l()}, Point{l(), l()}
		}
		got, want := inCircleExact(a, b, c, p), inCircleExactRat(a, b, c, p)
		if got != want {
			t.Fatalf("iter %d: inCircleExact(%v, %v, %v, %v) = %d, rational %d", i, a, b, c, p, got, want)
		}
		if want == 0 {
			zeros++
		}
	}
	if zeros == 0 {
		t.Fatal("no exactly co-circular input drawn; the test does not reach the zero sign")
	}
}

// TestOrientExactMatchesRational compares the Bareiss orientation with the
// rational reference for d = 2..6 on lattice points (frequent zero pivots
// and exactly degenerate simplices), on points placed exactly in the
// hyperplane of the others, and on mixed-exponent coordinates.
func TestOrientExactMatchesRational(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	iters := 600
	if testing.Short() {
		iters = 100
	}
	for d := 2; d <= 6; d++ {
		zeros := 0
		for i := 0; i < iters; i++ {
			verts := make([]Point, d)
			p := make(Point, d)
			switch i % 3 {
			case 0: // lattice
				for j := range verts {
					verts[j] = make(Point, d)
					for k := range verts[j] {
						verts[j][k] = float64(rng.Intn(3) - 1)
					}
				}
				for k := range p {
					p[k] = float64(rng.Intn(3) - 1)
				}
			case 1: // p an exact dyadic combination of the vertices
				for j := range verts {
					verts[j] = make(Point, d)
					for k := range verts[j] {
						verts[j][k] = float64(rng.Intn(64)-32) / 8
					}
				}
				w := make([]float64, d)
				sum := 0.0
				for j := 1; j < d; j++ {
					w[j] = float64(rng.Intn(9)-4) / 4
					sum += w[j]
				}
				w[0] = 1 - sum
				for k := range p {
					for j := range verts {
						p[k] += w[j] * verts[j][k]
					}
				}
			default: // mixed exponents
				for j := range verts {
					verts[j] = make(Point, d)
					for k := range verts[j] {
						verts[j][k] = mixedCoord(rng)
					}
				}
				for k := range p {
					p[k] = mixedCoord(rng)
				}
			}
			got, want := orientExact(verts, p), orientExactRat(verts, p)
			if got != want {
				t.Fatalf("d=%d iter %d: orientExact(%v, %v) = %d, rational %d", d, i, verts, p, got, want)
			}
			if want == 0 {
				zeros++
			}
		}
		if zeros == 0 {
			t.Fatalf("d=%d: no degenerate input drawn; the test does not reach the zero sign", d)
		}
	}
}

func BenchmarkInCircleExact(b *testing.B) {
	a, c, p := Point{1, 0}, Point{-1, 0}, Point{0, -1}
	bb := Point{0.6, math.Sqrt(1 - 0.36)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		inCircleExact(a, bb, c, p)
	}
}

func BenchmarkOrientExactD4(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	verts := make([]Point, 4)
	for j := range verts {
		verts[j] = randPt(rng, 4)
	}
	p := randPt(rng, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		orientExact(verts, p)
	}
}

package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func pt(cs ...float64) Point { return Point(cs) }

func TestOrient2DBasic(t *testing.T) {
	a, b := pt(0, 0), pt(1, 0)
	cases := []struct {
		c    Point
		want int
	}{
		{pt(0, 1), 1},
		{pt(0, -1), -1},
		{pt(2, 0), 0},
		{pt(-3, 0), 0},
		{pt(0.5, 1e-300), 1},
		{pt(0.5, -1e-300), -1},
	}
	for _, tc := range cases {
		if got := Orient2D(a, b, tc.c); got != tc.want {
			t.Errorf("Orient2D(%v,%v,%v) = %d, want %d", a, b, tc.c, got, tc.want)
		}
	}
}

func TestOrient2DAntisymmetry(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a, b, c := pt(ax, ay), pt(bx, by), pt(cx, cy)
		return Orient2D(a, b, c) == -Orient2D(b, a, c) &&
			Orient2D(a, b, c) == Orient2D(b, c, a)
	}
	cfg := &quick.Config{MaxCount: 2000, Values: nil}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestOrient2DNearDegenerate uses points that are collinear up to tiny
// perturbations; the float filter must hand off to the exact path and report
// the true sign of the perturbation.
func TestOrient2DNearDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		x1, x2 := rng.Float64(), rng.Float64()
		a := pt(0.5, 0.5)
		b := pt(12, 12)
		c := pt(24, 24)
		// Move c off the line y=x by the smallest representable steps.
		steps := rng.Intn(5) - 2
		cy := c[1]
		for s := 0; s < steps; s++ {
			cy = math.Nextafter(cy, math.Inf(1))
		}
		for s := 0; s > steps; s-- {
			cy = math.Nextafter(cy, math.Inf(-1))
		}
		c[1] = cy
		want := 0
		if steps > 0 {
			want = 1
		} else if steps < 0 {
			want = -1
		}
		// Displacing c upward puts it left of the up-right line a->b,
		// so the expected orientation is positive.
		if got := Orient2D(a, b, c); got != want {
			t.Fatalf("iter %d (x1=%v,x2=%v): steps=%d got %d want %d", i, x1, x2, steps, got, want)
		}
	}
}

// TestOrient3DNearDegenerate is the 3D twin of TestOrient2DNearDegenerate:
// d starts on the plane z = x + y through a, b, c and moves off it by a few
// ulps of z, so the float filter must hand off to the exact path and report
// the side it moved to.
func TestOrient3DNearDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a, b, c := pt(0.5, 0.5, 1), pt(12, 0, 12), pt(0, 24, 24)
	for i := 0; i < 5000; i++ {
		x, y := float64(rng.Intn(64))/4, float64(rng.Intn(64))/4
		z := x + y
		steps := rng.Intn(5) - 2
		for s := 0; s < steps; s++ {
			z = math.Nextafter(z, math.Inf(1))
		}
		for s := 0; s > steps; s-- {
			z = math.Nextafter(z, math.Inf(-1))
		}
		// The normal (b-a)x(c-a) points up, so a d raised above the plane
		// sees (a, b, c) clockwise: Orient3D < 0.
		want := 0
		if steps > 0 {
			want = -1
		} else if steps < 0 {
			want = 1
		}
		if got := Orient3D(a, b, c, pt(x, y, z)); got != want {
			t.Fatalf("iter %d: d=(%v,%v,%v) steps=%d got %d want %d", i, x, y, z, steps, got, want)
		}
	}
}

func TestOrient3DBasic(t *testing.T) {
	a, b, c := pt(0, 0, 0), pt(1, 0, 0), pt(0, 1, 0)
	// Orient3D = det[a-p; b-p; c-p]; p above the xy-plane gives -1.
	if got := Orient3D(a, b, c, pt(0, 0, 1)); got != -1 {
		t.Errorf("above: got %d want -1", got)
	}
	if got := Orient3D(a, b, c, pt(0, 0, -1)); got != 1 {
		t.Errorf("below: got %d want 1", got)
	}
	if got := Orient3D(a, b, c, pt(5, 7, 0)); got != 0 {
		t.Errorf("coplanar: got %d want 0", got)
	}
}

func TestOrientSimplexMatchesLowDim(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		a, b, c := randPt(rng, 2), randPt(rng, 2), randPt(rng, 2)
		if OrientSimplex([]Point{a, b}, c) != Orient2D(a, b, c) {
			t.Fatalf("2d mismatch at %d", i)
		}
		p, q, r, s := randPt(rng, 3), randPt(rng, 3), randPt(rng, 3), randPt(rng, 3)
		if OrientSimplex([]Point{p, q, r}, s) != -Orient3D(p, q, r, s) {
			t.Fatalf("3d mismatch at %d", i)
		}
	}
}

// TestOrientSimplexAgainstExact drives the float-filtered path and the exact
// path on the same inputs: random points, and points placed on the facet's
// hyperplane by a float affine combination of its vertices, so that rounding
// leaves most of them a hair off it and the float filter defers to the exact
// fallback.
func TestOrientSimplexAgainstExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for d := 2; d <= 6; d++ {
		offPlane := 0
		for i := 0; i < 1000; i++ {
			verts := make([]Point, d)
			for j := range verts {
				verts[j] = randPt(rng, d)
			}
			p := randPt(rng, d)
			if i%2 == 1 {
				p = verts[0].Clone()
				for j := 1; j < d; j++ {
					p = p.Add(verts[j].Sub(verts[0]).Scale(rng.Float64()))
				}
			}
			got := OrientSimplex(verts, p)
			want := orientExact(verts, p)
			if got != want {
				t.Fatalf("d=%d iter=%d: OrientSimplex=%d exact=%d", d, i, got, want)
			}
			if i%2 == 1 && want != 0 {
				offPlane++
			}
		}
		if offPlane == 0 {
			t.Fatalf("d=%d: every near-coplanar point rounded exactly onto the plane", d)
		}
	}
}

func TestOrientSimplexDegenerateHighDim(t *testing.T) {
	// p inside the affine hull of the simplex base: determinant is exactly 0.
	d := 5
	verts := make([]Point, d)
	for i := range verts {
		verts[i] = make(Point, d)
		if i > 0 {
			verts[i][i-1] = 1 // e_{i-1}; base spans x_d = 0 minus one dim
		}
	}
	p := make(Point, d)
	p[0], p[1] = 0.25, 0.75 // inside span of rows -> det 0
	if got := OrientSimplex(verts, p); got != 0 {
		t.Fatalf("degenerate: got %d want 0", got)
	}
}

func TestInCircle(t *testing.T) {
	// Unit circle through (1,0), (0,1), (-1,0) in CCW order.
	a, b, c := pt(1, 0), pt(0, 1), pt(-1, 0)
	if got := InCircle(a, b, c, pt(0, 0)); got != 1 {
		t.Errorf("center: got %d want 1", got)
	}
	if got := InCircle(a, b, c, pt(2, 2)); got != -1 {
		t.Errorf("far outside: got %d want -1", got)
	}
	if got := InCircle(a, b, c, pt(0, -1)); got != 0 {
		t.Errorf("on circle: got %d want 0", got)
	}
}

func TestInCircleNearBoundary(t *testing.T) {
	a, b, c := pt(1, 0), pt(0, 1), pt(-1, 0)
	x := 0.6
	y := math.Sqrt(1 - x*x) // on unit circle up to rounding
	got := InCircle(a, b, c, pt(x, -y))
	// The exact answer depends on rounding of y; just require agreement with
	// the exact evaluator.
	want := inCircleExact(a, b, c, pt(x, -y))
	if got != want {
		t.Fatalf("filter/exact disagree: %d vs %d", got, want)
	}
}

func TestPointOps(t *testing.T) {
	p, q := pt(1, 2, 3), pt(4, 5, 6)
	if got := p.Add(q); !got.Equal(pt(5, 7, 9)) {
		t.Errorf("Add: %v", got)
	}
	if got := q.Sub(p); !got.Equal(pt(3, 3, 3)) {
		t.Errorf("Sub: %v", got)
	}
	if got := p.Dot(q); got != 32 {
		t.Errorf("Dot: %v", got)
	}
	if got := p.Scale(2); !got.Equal(pt(2, 4, 6)) {
		t.Errorf("Scale: %v", got)
	}
	if p.Norm2() != 14 {
		t.Errorf("Norm2: %v", p.Norm2())
	}
	if c := CentroidInto(nil, []Point{pt(0, 0), pt(2, 4)}); !c.Equal(pt(1, 2)) {
		t.Errorf("Centroid: %v", c)
	}
	if buf := (Point{9, 9, 9}); !CentroidInto(buf, []Point{pt(0, 0), pt(2, 4)}).Equal(pt(1, 2)) || buf[0] != 1 {
		t.Errorf("CentroidInto does not overwrite dst's storage: %v", buf)
	}
	if !pt(1, 2).Finite() || pt(math.NaN(), 0).Finite() || pt(math.Inf(1), 0).Finite() {
		t.Error("Finite misclassifies")
	}
	if pt(1, 2).Equal(pt(1)) || !pt(1, 2).Equal(pt(1, 2)) {
		t.Error("Equal misclassifies")
	}
	if s := pt(1, 2.5).String(); s != "(1, 2.5)" {
		t.Errorf("String: %q", s)
	}
	cl := p.Clone()
	cl[0] = 99
	if p[0] != 1 {
		t.Error("Clone aliases")
	}
}

func TestValidateCloud(t *testing.T) {
	good := []Point{pt(0, 0), pt(1, 1)}
	if err := ValidateCloud(good, 2); err != nil {
		t.Fatalf("good cloud rejected: %v", err)
	}
	if err := ValidateCloud(good, 1); err == nil {
		t.Error("d=1 accepted")
	}
	if err := ValidateCloud([]Point{pt(0, 0, 0)}, 2); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if err := ValidateCloud([]Point{pt(math.NaN(), 0)}, 2); err == nil {
		t.Error("NaN accepted")
	}
}

func randPt(rng *rand.Rand, d int) Point {
	p := make(Point, d)
	for i := range p {
		p[i] = rng.NormFloat64()
	}
	return p
}

func BenchmarkOrient2D(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	pts := make([]Point, 300)
	for i := range pts {
		pts[i] = randPt(rng, 2)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % 100
		Orient2D(pts[j], pts[j+100], pts[j+200])
	}
}

func BenchmarkOrientSimplexD5(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	verts := make([]Point, 5)
	for i := range verts {
		verts[i] = randPt(rng, 5)
	}
	p := randPt(rng, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		OrientSimplex(verts, p)
	}
}

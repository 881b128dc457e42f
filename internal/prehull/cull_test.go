package prehull

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"parhull/internal/geom"
	"parhull/internal/pointgen"
)

// scanAllPlanes is the cull query without the cell index, the oracle of
// the indexed scan: a point inside the inscribed sphere drops, a point
// outside the sample box stays, and any other point drops only when every
// sample plane certifies it strictly interior.
func (c *cullState) scanAllPlanes(pts []geom.Point, keepMask []bool) int {
	d := len(c.centroid)
	kept := 0
	for i, x := range pts {
		if c.scaled(x).Norm2() < c.r2 {
			continue
		}
		keep := false
		for j := 0; j < d; j++ {
			keep = keep || !(math.Abs(x[j]) <= c.box[j])
		}
		for pi := 0; !keep && pi < len(c.planes); pi++ {
			keep = c.planes[pi].Eval(x) >= -c.eps
		}
		if keep {
			keepMask[i] = true
			kept++
		}
	}
	return kept
}

// scaled returns the scaled direction S(x - c) of x.
func (c *cullState) scaled(x geom.Point) geom.Point {
	u := make(geom.Point, len(c.centroid))
	for j := range u {
		u[j] = (x[j] - c.centroid[j]) * c.scale[j]
	}
	return u
}

// buildCull builds the cull state of sample, returning it with the sample
// hull's facet tuples, or nil when the cull skips the sample.
func buildCull(t *testing.T, sample []geom.Point, d int) (*cullState, []int32) {
	t.Helper()
	c, w := new(cullState), new(seqWorker)
	ok, err := c.build(sample, d, Config{}, w)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		return nil, nil
	}
	return c, slices.Clone(w.fverts)
}

// plantAt returns the point x whose scaled direction S(x - c) is u exactly
// in float64, nudging a coordinate by a few ulps when the plain sum rounds,
// or false when no nudge lands on u_j. S is a power of two per axis, so
// x_j - c_j must be exactly u_j / S_j.
func plantAt(c *cullState, u []float64) (geom.Point, bool) {
	x := make(geom.Point, len(u))
	for j, cj := range c.centroid {
		v := u[j] / c.scale[j]
		x[j] = cj + v
		for step := 0; x[j]-cj != v; step++ {
			if step == 8 {
				return nil, false
			}
			if x[j]-cj < v {
				x[j] = math.Nextafter(x[j], math.Inf(1))
			} else {
				x[j] = math.Nextafter(x[j], math.Inf(-1))
			}
		}
	}
	return x, true
}

// plantTies returns points whose scaled direction from the centroid ties
// two or more axes for the largest |u_j| — on the cube map's face edges and
// corners — and points on the cell edges inside face (axis 0, +), at
// distances from just outside the inscribed sphere to well beyond it.
func plantTies(c *cullState) (pts []geom.Point, ties int) {
	d := len(c.centroid)
	u := make([]float64, d)
	for _, grow := range []float64{1.001, 1.003, 1.01, 1.03, 1.1, 1.3} {
		dist := math.Sqrt(c.r2) * grow
		// Every sign pattern over {-1, 0, 1} with at least two nonzero
		// axes: face edges, and corners when every axis is nonzero.
		for code := 0; code < int(math.Pow(3, float64(d))); code++ {
			at := 0
			for j, rest := 0, code; j < d; j, rest = j+1, rest/3 {
				u[j] = float64(rest%3 - 1)
				if u[j] != 0 {
					at++
				}
			}
			if at < 2 {
				continue
			}
			rho := grid(c, dist/math.Sqrt(float64(at)))
			for j := range u {
				u[j] *= rho
			}
			if x, ok := plantAt(c, u); ok {
				pts = append(pts, x)
				ties++
			}
		}
		if c.k == 0 {
			continue
		}
		for m := 0; m <= c.k; m++ {
			u[0] = 1
			for j := 1; j < d; j++ {
				u[j] = -1 + 2*float64((m+j)%(c.k+1))/float64(c.k)
			}
			rho := dist / geom.Point(u).Norm()
			for j := range u {
				u[j] *= rho
			}
			if x, ok := plantAt(c, u); ok {
				pts = append(pts, x)
			}
		}
	}
	return pts, ties
}

// grid rounds the scaled offset v to a multiple of S_j times the ulp of
// the box's coordinates along every axis j, so that plantAt lands on ±v
// exactly along every axis even where the coordinates are large.
func grid(c *cullState, v float64) float64 {
	q := 0.0
	for j, b := range c.box {
		m := b + 2*math.Abs(v)/c.scale[j]
		q = max(q, (math.Nextafter(m, math.Inf(1))-m)*c.scale[j])
	}
	return math.Round(v/q) * q
}

// plantOnFacets returns the sample hull's vertices, which lie exactly on
// its facets, and the float barycenters of its facets.
func plantOnFacets(sample []geom.Point, fverts []int32, d int) []geom.Point {
	var pts []geom.Point
	seen := map[int32]bool{}
	for f := 0; f+d <= len(fverts); f += d {
		bary := make(geom.Point, d)
		for _, v := range fverts[f : f+d] {
			if !seen[v] {
				seen[v] = true
				pts = append(pts, sample[v])
			}
			for j := range d {
				bary[j] += sample[v][j] / float64(d)
			}
		}
		pts = append(pts, bary)
	}
	return pts
}

// checkDropsInterior fails unless every point the cull dropped from pts
// (keepMask false) is strictly inside the sample hull by the exact
// orientation predicate: on the centroid's side of every sample facet. The
// sign comes from the facet's float plane where the static filter, over a
// box holding every point tested, certifies it, and from geom.OrientSimplex
// otherwise. It returns the number of dropped points.
func checkDropsInterior(t *testing.T, label string, c *cullState, sample []geom.Point, fverts []int32, pts []geom.Point, keepMask []bool) int {
	t.Helper()
	d := len(c.centroid)
	maxAbs := make([]float64, d)
	for _, p := range slices.Concat(sample, pts) {
		for j := range d {
			maxAbs[j] = max(maxAbs[j], math.Abs(p[j]))
		}
	}
	eps := geom.StaticFilterEps(maxAbs)
	nf := len(fverts) / d
	vps := make([][]geom.Point, nf)
	planes := make([]geom.Plane, nf)
	side := make([]int, nf)
	for f := range nf {
		for _, v := range fverts[f*d : (f+1)*d] {
			vps[f] = append(vps[f], sample[v])
		}
		planes[f] = geom.NewFacetPlane(vps[f], eps)
		if side[f] = geom.OrientSimplex(vps[f], c.centroid); side[f] == 0 {
			t.Fatalf("%s: the centroid lies on sample facet %d", label, f)
		}
	}
	dropped := 0
	for i, x := range pts {
		if keepMask[i] {
			continue
		}
		dropped++
		for f := range nf {
			s, ok := planes[f].CertifiedSign(x)
			if !ok {
				s = geom.OrientSimplex(vps[f], x)
			}
			if s != side[f] {
				t.Fatalf("%s: point %d %v dropped, but not strictly inside sample facet %d", label, i, x, f)
			}
		}
	}
	return dropped
}

// TestCullDropsOnlyInterior checks the indexed cull's soundness with the
// exact predicate, and that its keep set is a subset of the all-planes
// oracle's: d = 2, 3 and 4; ball, clustered, anisotropic and shifted
// clouds; plus planted points on the cube map's face edges, corners and
// cell edges, and on the sample facets themselves. The cull skips some
// samples (the 3D and 4D shifted balls), so each dimension must have at
// least one cloud whose cull runs on a cell index; the anisotropic cloud,
// flat along the axes, must run on one in every dimension.
func TestCullDropsOnlyInterior(t *testing.T) {
	for d := 2; d <= 4; d++ {
		n := 12000
		if d == 4 {
			n = 5000 // a 4D sample hull has ~2,800 facets to check each point against
		}
		indexed := 0
		rng := pointgen.NewRNG(int64(60 + d))
		shifted := pointgen.UniformBall(rng, n, d)
		for _, p := range shifted {
			for j := range p {
				p[j] += 1e6
			}
		}
		clouds := map[string][]geom.Point{
			"ball":        pointgen.UniformBall(rng, n, d),
			"clustered":   pointgen.Clustered(rng, n, d, 12, 0.05),
			"anisotropic": pointgen.Anisotropic(rng, n, d, 0.02),
			"shifted":     shifted,
		}
		for name, cloud := range clouds {
			label := fmt.Sprintf("d=%d/%s", d, name)
			t.Run(label, func(t *testing.T) {
				sample := cloud[:cullSampleFor(n)]
				c, fverts := buildCull(t, sample, d)
				if c == nil {
					if name == "ball" && d < 4 {
						t.Fatal("the cull skipped a ball sample")
					}
					t.Skip("the cull skips this sample")
				}
				if c.k > 0 {
					indexed++
				} else if name == "anisotropic" {
					t.Fatal("no cell index for an axis-aligned flat cloud: the scaled caps should fit")
				}
				ties, nties := plantTies(c)
				pts := slices.Concat(cloud, ties, plantOnFacets(sample, fverts, d))
				keep := make([]bool, len(pts))
				kept := c.scan(pts, 0, len(pts), keep)
				oracle := make([]bool, len(pts))
				c.scanAllPlanes(pts, oracle)
				for i := range pts {
					if keep[i] && !oracle[i] {
						t.Fatalf("point %d kept by the cell index, dropped by the all-planes oracle", i)
					}
				}
				dropped := checkDropsInterior(t, label, c, sample, fverts, pts, keep)
				if dropped+kept != len(pts) {
					t.Fatalf("scan counted %d kept, mask holds %d dropped of %d", kept, dropped, len(pts))
				}
				// Planted points the cell query itself dropped: outside the
				// inscribed sphere.
				cellDropped := 0
				for i, x := range ties {
					if !keep[len(cloud)+i] && c.scaled(x).Norm2() >= c.r2 {
						cellDropped++
					}
				}
				t.Logf("k=%d planes=%d dropped %d of %d; %d exact ties planted, %d planted points dropped by the cell query",
					c.k, len(c.planes), dropped, len(pts), nties, cellDropped)
				if c.k > 0 && (nties == 0 || cellDropped == 0) {
					t.Fatalf("the planted points did not exercise the cell query (k=%d, %d ties, %d dropped)", c.k, nties, cellDropped)
				}
			})
		}
		if indexed == 0 {
			t.Fatalf("d=%d: no cloud ran the cull on a cell index", d)
		}
	}
}

// TestCullIndexMatchesAllPlanes pins that the cell index drops exactly the
// points the all-planes loop drops on uniform balls of 1e5 and 1e6 points
// (1e5 only under the race detector): on these clouds indexing by direction
// changes the cost of the cull, not its keep set.
func TestCullIndexMatchesAllPlanes(t *testing.T) {
	sizes := []int{100_000, 1_000_000}
	if raceEnabled {
		sizes = sizes[:1] // one goroutine: the race detector only slows it
	}
	for _, n := range sizes {
		for seed := int64(1); seed <= 3; seed++ {
			pts := shuffledBall(seed, n, 3)
			c, _ := buildCull(t, pts[:cullSampleFor(n)], 3)
			if c == nil || c.k == 0 {
				t.Fatalf("n=%d seed=%d: no cell index", n, seed)
			}
			keep, oracle := make([]bool, n), make([]bool, n)
			k := c.scan(pts, 0, n, keep)
			ko := c.scanAllPlanes(pts, oracle)
			if k != ko || !slices.Equal(keep, oracle) {
				t.Fatalf("n=%d seed=%d: the cell index keeps %d points, the all-planes loop %d", n, seed, k, ko)
			}
		}
	}
}

// TestCullFallbackUsesSmallestSample checks the sample rule's fallback:
// when the sample cullSampleFor picks has no cell index — here a flat cloud
// turned off the axes, which the per-axis scaling cannot round — Reduce
// culls with the cullSampleMin prefix, whose planes are fewer, and drops
// exactly what the all-planes loop over that prefix's hull drops.
func TestCullFallbackUsesSmallestSample(t *testing.T) {
	if raceEnabled {
		t.Skip("a sizing rule over 4e5 points, not a concurrency property")
	}
	n := 400_000
	pts := pointgen.Anisotropic(pointgen.NewRNG(7), n, 3, 0.02)
	ca, sa, cb, sb := math.Cos(0.5), math.Sin(0.5), math.Cos(0.7), math.Sin(0.7)
	for _, p := range pts {
		x, y, z := p[0], p[1], p[2]
		x, y = ca*x-sa*y, sa*x+ca*y
		y, z = cb*y-sb*z, sb*y+cb*z
		p[0], p[1], p[2] = x, y, z
	}
	m := cullSampleFor(n)
	if c, _ := buildCull(t, pts[:m], 3); m <= cullSampleMin || c == nil || c.k != 0 {
		t.Fatalf("the %d-point sample does not exercise the fallback", m)
	}
	small, _ := buildCull(t, pts[:cullSampleMin], 3)
	kept := small.scanAllPlanes(pts, make([]bool, n))

	var s Scratch
	defer s.Close()
	red, err := Reduce(pts, Config{Workers: 2, Scratch: &s})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.cull.planes) != len(small.planes) || red.Culled != n-kept {
		t.Fatalf("culled %d with %d planes; the %d-point sample culls %d with %d planes",
			red.Culled, len(s.cull.planes), cullSampleMin, n-kept, len(small.planes))
	}
}

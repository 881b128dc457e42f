package geom

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestZOrderPermIsPermutation checks the basic contract on a few clouds.
func TestZOrderPermIsPermutation(t *testing.T) {
	clouds := map[string][]Point{
		"empty":    {},
		"one":      {{1, 2}},
		"same":     {{3, 3}, {3, 3}, {3, 3}},
		"line":     {{0, 0}, {1, 0}, {2, 0}, {3, 0}},
		"nan":      {{math.NaN(), 1}, {0, math.Inf(1)}, {1, 1}},
		"grid3d":   grid3(4),
		"negative": {{-5, -5, -5}, {5, 5, 5}, {0, 0, 0}},
	}
	for name, pts := range clouds {
		perm := ZOrderPerm(pts)
		if len(perm) != len(pts) {
			t.Fatalf("%s: len %d != %d", name, len(perm), len(pts))
		}
		seen := make(map[int32]bool, len(perm))
		for _, v := range perm {
			if v < 0 || int(v) >= len(pts) || seen[v] {
				t.Fatalf("%s: not a permutation: %v", name, perm)
			}
			seen[v] = true
		}
	}
}

// TestZOrderQuadrants pins the curve's defining property in 2D: all points of
// one quadrant of the bounding square appear contiguously before any point of
// a later quadrant (the Z visits quadrants in a fixed order).
func TestZOrderQuadrants(t *testing.T) {
	// 8 points, two per quadrant of [0,1]^2, interleaved in input order.
	pts := []Point{
		{0.1, 0.1}, {0.9, 0.9}, {0.2, 0.2}, {0.8, 0.8},
		{0.9, 0.1}, {0.1, 0.9}, {0.8, 0.2}, {0.2, 0.9},
	}
	quad := func(p Point) int {
		q := 0
		if p[0] >= 0.5 {
			q |= 1
		}
		if p[1] >= 0.5 {
			q |= 2
		}
		return q
	}
	perm := ZOrderPerm(pts)
	seen := make(map[int]bool)
	last := -1
	for _, idx := range perm {
		q := quad(pts[idx])
		if q != last {
			if seen[q] {
				t.Fatalf("quadrant %d visited twice: order %v", q, perm)
			}
			seen[q] = true
			last = q
		}
	}
}

// TestZOrderDeterministic: same input, same permutation, and ties break by
// index (ascending).
func TestZOrderDeterministic(t *testing.T) {
	pts := grid3(5)
	a := ZOrderPerm(pts)
	b := ZOrderPerm(pts)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at %d: %d vs %d", i, a[i], b[i])
		}
	}
	dup := []Point{{1, 1}, {1, 1}, {0, 0}, {1, 1}}
	perm := ZOrderPerm(dup)
	// The three identical points must appear in index order.
	var ones []int32
	for _, v := range perm {
		if dup[v][0] == 1 {
			ones = append(ones, v)
		}
	}
	for i := 1; i < len(ones); i++ {
		if ones[i] < ones[i-1] {
			t.Fatalf("tied points out of index order: %v", perm)
		}
	}
}

// TestZOrderLocality: on a k x k grid, consecutive points of the Z order are
// much closer on average than consecutive points of a shuffled order would be
// (the grid in natural row order already has locality; compare against the
// cloud diameter instead).
func TestZOrderLocality(t *testing.T) {
	const k = 16
	pts := make([]Point, 0, k*k)
	for x := 0; x < k; x++ {
		for y := 0; y < k; y++ {
			pts = append(pts, Point{float64(x), float64(y)})
		}
	}
	perm := ZOrderPerm(pts)
	var total float64
	for i := 1; i < len(perm); i++ {
		a, b := pts[perm[i-1]], pts[perm[i]]
		dx, dy := a[0]-b[0], a[1]-b[1]
		total += math.Sqrt(dx*dx + dy*dy)
	}
	avg := total / float64(len(perm)-1)
	// A random order averages ~0.52*k ≈ 8.3 for k=16; the Z curve stays
	// under 2 (mostly unit steps with occasional quadrant jumps).
	if avg > 3 {
		t.Fatalf("average Z-neighbor distance %.2f too large for a %dx%d grid", avg, k, k)
	}
}

func grid3(k int) []Point {
	pts := make([]Point, 0, k*k*k)
	for x := 0; x < k; x++ {
		for y := 0; y < k; y++ {
			for z := 0; z < k; z++ {
				pts = append(pts, Point{float64(x), float64(y), float64(z)})
			}
		}
	}
	return pts
}

// zorderReference is the definition ZOrderPermInto must reproduce: each
// key interleaved bit by bit, then a comparison sort by (key, index).
func zorderReference(pts []Point) ([]int32, []uint64) {
	n := len(pts)
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	if n == 0 {
		return perm, nil
	}
	d := len(pts[0])
	bits := 63 / d
	if bits < 1 {
		bits = 1
	}
	lo, hi := append(Point(nil), pts[0]...), append(Point(nil), pts[0]...)
	for _, p := range pts {
		for j := 0; j < d; j++ {
			if p[j] < lo[j] {
				lo[j] = p[j]
			}
			if p[j] > hi[j] {
				hi[j] = p[j]
			}
		}
	}
	max := float64(uint64(1)<<uint(bits) - 1)
	keys := make([]uint64, n)
	q := make([]uint64, d)
	for i, p := range pts {
		for j := 0; j < d; j++ {
			q[j] = quantize(p[j], lo[j], hi[j], max)
		}
		var key uint64
		for b := bits - 1; b >= 0; b-- {
			for _, qj := range q {
				key = key<<1 | (qj>>uint(b))&1
			}
		}
		keys[i] = key
	}
	sort.SliceStable(perm, func(a, b int) bool { return keys[perm[a]] < keys[perm[b]] })
	return perm, keys
}

// TestZOrderMatchesReference checks that the magic-bit and table
// interleaves and the radix sort return exactly the reference permutation
// and keys: d = 2..6, clouds with tied keys (repeated points, and more
// points than Morton cells along a short axis), a collapsed axis, and NaN
// coordinates, on one retained ZOrder reused across every cloud.
func TestZOrderMatchesReference(t *testing.T) {
	var z ZOrder
	rng := rand.New(rand.NewSource(31))
	for d := 2; d <= 6; d++ {
		clouds := map[string][]Point{}
		random := make([]Point, 5000)
		for i := range random {
			random[i] = randPt(rng, d)
		}
		clouds["random"] = random
		tied := make([]Point, 3000)
		for i := range tied {
			tied[i] = randPt(rng, d)
			if i%3 != 0 {
				tied[i] = tied[i/3*3].Clone() // triples of one point
			}
			tied[i][0] = float64(i % 7) // seven values on axis 0
		}
		clouds["tied"] = tied
		flat := make([]Point, 2000)
		for i := range flat {
			flat[i] = randPt(rng, d)
			flat[i][d-1] = 4.5 // a collapsed axis
		}
		clouds["collapsed"] = flat
		nan := make([]Point, 2000)
		for i := range nan {
			nan[i] = randPt(rng, d)
			if i%5 == 0 {
				nan[i][i%d] = math.NaN()
			}
		}
		clouds["nan"] = nan
		nan0 := append([]Point{make(Point, d)}, random[:1000]...)
		nan0[0][0] = math.NaN() // a NaN in the bounds seed
		clouds["nan-first"] = nan0
		for name, pts := range clouds {
			wantPerm, wantKeys := zorderReference(pts)
			perm, keys := ZOrderPermInto(&z, pts)
			if !slices.Equal(keys, wantKeys) {
				t.Fatalf("d=%d %s: keys differ from the reference", d, name)
			}
			if !slices.Equal(perm, wantPerm) {
				t.Fatalf("d=%d %s: permutation differs from the reference", d, name)
			}
		}
	}
}

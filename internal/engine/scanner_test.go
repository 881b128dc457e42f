package engine_test

import (
	"context"
	"sort"
	"testing"

	"parhull/internal/circles"
	"parhull/internal/core"
	"parhull/internal/corner"
	"parhull/internal/delaunay"
	"parhull/internal/engine"
	"parhull/internal/geom"
	"parhull/internal/halfspace"
	"parhull/internal/pointgen"
	"parhull/internal/trapezoid"
)

// scanSpace couples a core.Space with its batch scanner, which every space
// in the repository now implements.
type scanSpace interface {
	core.Space
	engine.ConflictScanner
}

// shimFirstConflict is the semantics FirstConflict must reproduce: the
// closure over InConflict the engine falls back to for scanner-less spaces.
func shimFirstConflict(s core.Space, c int, order []int) int {
	for r, o := range order {
		if s.InConflict(c, o) {
			return r
		}
	}
	return len(order)
}

func checkScanner(t *testing.T, name string, s scanSpace, orders [][]int) {
	t.Helper()
	for oi, order := range orders {
		for c := 0; c < s.NumConfigs(); c++ {
			want := shimFirstConflict(s, c, order)
			if got := s.FirstConflict(c, order); got != want {
				t.Fatalf("%s: config %d order#%d %v: FirstConflict = %d, shim = %d",
					name, c, oi, order, got, want)
			}
		}
	}
}

// orderSet returns insertion orders to exercise: identity, reversed beyond
// the base prefix, and a shuffled tail.
func orderSet(n, base int) [][]int {
	id := make([]int, n)
	for i := range id {
		id[i] = i
	}
	rev := append([]int(nil), id...)
	for i, j := base, n-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	shuf := append([]int(nil), id...)
	for i, j := range pointgen.Perm(pointgen.NewRNG(99), n-base) {
		shuf[base+i] = base + j
	}
	return [][]int{id, rev, shuf}
}

func delaunaySpace(t *testing.T, n int) *delaunay.Space {
	t.Helper()
	// Bounding triangle first: pinned in the base prefix so cavities stay
	// interior and the space's 2-support holds for every insertion.
	pts := append([]geom.Point{{0, 8}, {-8, -6}, {8, -6}},
		pointgen.UniformBall(pointgen.NewRNG(3), n-3, 2)...)
	s, err := delaunay.NewSpace(pts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func cornerSpace(t *testing.T) *corner.Space {
	t.Helper()
	// A degenerate cloud: cube corners (coplanar faces) plus an interior and
	// an edge-collinear point.
	pts := pointgen.Grid3D(2)
	pts = append(pts, geom.Point{0.5, 0.5, 0.5}, geom.Point{0.5, 0, 0}, geom.Point{2, 0.25, 0.75})
	s, err := corner.NewSpace(pts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func circleSpace(t *testing.T, n int) *circles.Space {
	t.Helper()
	rng := pointgen.NewRNG(5)
	centers := make([]geom.Point, n)
	for i := range centers {
		centers[i] = geom.Point{rng.Float64() * 0.8, rng.Float64() * 0.8}
	}
	s, err := circles.NewSpace(centers)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func halfspaceSpace(t *testing.T, n, d int) *halfspace.Space {
	t.Helper()
	normals := halfspace.BoundingSimplex(d)
	normals = append(normals, pointgen.OnSphere(pointgen.NewRNG(7), n, d)...)
	s, err := halfspace.NewSpace(normals)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func trapezoidSpace(t *testing.T) *trapezoid.Space {
	t.Helper()
	box := trapezoid.Box{XL: 0, XR: 100, YB: 0, YT: 100}
	segs := []trapezoid.Segment{
		{Y: 50, XL: 10, XR: 90},
		{Y: 70, XL: 20, XR: 30},
		{Y: 75, XL: 40, XR: 55},
		{Y: 30, XL: 15, XR: 80},
		{Y: 90, XL: 5, XR: 95},
	}
	s, err := trapezoid.NewSpace(segs, box)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestScannersMatchInConflictShim is the batch-scan property test: for every
// space, configuration, and order, FirstConflict must agree with the closure
// over InConflict that scanner-less spaces get.
func TestScannersMatchInConflictShim(t *testing.T) {
	ds := delaunaySpace(t, 9)
	checkScanner(t, "delaunay", ds, orderSet(ds.NumObjects(), ds.BaseSize()))
	cs := cornerSpace(t)
	checkScanner(t, "corner", cs, orderSet(cs.NumObjects(), cs.BaseSize()))
	us := circleSpace(t, 7)
	checkScanner(t, "circles", us, orderSet(us.NumObjects(), us.BaseSize()))
	for _, d := range []int{2, 3} {
		hs := halfspaceSpace(t, 6, d)
		checkScanner(t, "halfspace", hs, orderSet(hs.NumObjects(), hs.BaseSize()))
	}
	ts := trapezoidSpace(t)
	checkScanner(t, "trapezoid", ts, orderSet(ts.NumObjects(), ts.BaseSize()))
}

// TestPeakEnumerators checks the PeakEnumerator contract against brute
// force: for any below-set, EnumeratePeak(x, ...) must emit exactly once
// each configuration containing x in its defining set with all other
// defining objects below.
func TestPeakEnumerators(t *testing.T) {
	spaces := []struct {
		name string
		s    core.Space
	}{
		{"corner", cornerSpace(t)},
		{"delaunay", delaunaySpace(t, 8)},
	}
	for _, sp := range spaces {
		pe, ok := sp.s.(engine.PeakEnumerator)
		if !ok {
			t.Fatalf("%s: space does not implement PeakEnumerator", sp.name)
		}
		n := sp.s.NumObjects()
		order := orderSet(n, 1)[2]
		rank := make([]int, n)
		for i, o := range order {
			rank[o] = i
		}
		for x := 0; x < n; x++ {
			below := func(o int) bool { return rank[o] < rank[x] }
			want := map[int]int{}
			for c := 0; c < sp.s.NumConfigs(); c++ {
				def := sp.s.Defining(c)
				hasX, allBelow := false, true
				for _, o := range def {
					if o == x {
						hasX = true
					} else if !below(o) {
						allBelow = false
					}
				}
				if hasX && allBelow {
					want[c] = 1
				}
			}
			got := map[int]int{}
			pe.EnumeratePeak(x, below, func(c int) { got[c]++ })
			if len(got) != len(want) {
				t.Fatalf("%s: x=%d emitted %d configs, want %d", sp.name, x, len(got), len(want))
			}
			for c, k := range got {
				if k != 1 || want[c] != 1 {
					t.Fatalf("%s: x=%d config %d emitted %d times (want once, expected=%v)",
						sp.name, x, c, k, want[c] == 1)
				}
			}
		}
	}
}

// TestSpaceRoundsMatchesActive pins the engine refactor (CSR buckets, lazy
// peak enumeration, scanner fast path) to the definitional oracle on all
// five spaces and several orders: the final active set must equal T(X)
// (core.Active) regardless of insertion order.
func TestSpaceRoundsMatchesActive(t *testing.T) {
	spaces := []struct {
		name string
		s    core.Space
	}{
		{"delaunay", delaunaySpace(t, 9)},
		{"corner", cornerSpace(t)},
		{"circles", circleSpace(t, 7)},
		{"halfspace2", halfspaceSpace(t, 6, 2)},
		{"halfspace3", halfspaceSpace(t, 5, 3)},
		{"trapezoid", trapezoidSpace(t)},
	}
	for _, sp := range spaces {
		for oi, order := range orderSet(sp.s.NumObjects(), sp.s.BaseSize()) {
			want := core.Active(sp.s, order)
			sort.Ints(want)
			got, err := engine.SpaceRounds(context.Background(), nil, sp.s, order)
			if err != nil {
				t.Fatalf("%s order#%d SpaceRounds: %v", sp.name, oi, err)
			}
			if len(got.Alive) != len(want) {
				t.Fatalf("%s order#%d: engine alive %d configs, T(X) has %d\nengine: %v\nT(X): %v",
					sp.name, oi, len(got.Alive), len(want), got.Alive, want)
			}
			for i := range want {
				if got.Alive[i] != want[i] {
					t.Fatalf("%s order#%d: alive sets differ at %d: engine %d, T(X) %d",
						sp.name, oi, i, got.Alive[i], want[i])
				}
			}
		}
	}
}

// TestSpaceRoundsMatchesRunGeneric compares against the full Algorithm 1
// brute-force process on tiny 2-supported instances (RunGeneric's support
// subset search is exponential in MaxSupport, so high-support spaces are
// covered by the T(X) oracle above instead).
func TestSpaceRoundsMatchesRunGeneric(t *testing.T) {
	spaces := []struct {
		name string
		s    core.Space
	}{
		{"delaunay", delaunaySpace(t, 7)},
		{"circles", circleSpace(t, 5)},
		{"halfspace2", halfspaceSpace(t, 3, 2)},
	}
	for _, sp := range spaces {
		for oi, order := range orderSet(sp.s.NumObjects(), sp.s.BaseSize()) {
			want, err := core.RunGeneric(sp.s, order)
			if err != nil {
				t.Fatalf("%s order#%d RunGeneric: %v", sp.name, oi, err)
			}
			got, err := engine.SpaceRounds(context.Background(), nil, sp.s, order)
			if err != nil {
				t.Fatalf("%s order#%d SpaceRounds: %v", sp.name, oi, err)
			}
			wa := append([]int(nil), want.Alive...)
			sort.Ints(wa)
			if len(got.Alive) != len(wa) {
				t.Fatalf("%s order#%d: engine alive %d configs, Algorithm 1 %d\nengine: %v\noracle: %v",
					sp.name, oi, len(got.Alive), len(wa), got.Alive, wa)
			}
			for i := range wa {
				if got.Alive[i] != wa[i] {
					t.Fatalf("%s order#%d: alive sets differ at %d: engine %d, oracle %d",
						sp.name, oi, i, got.Alive[i], wa[i])
				}
			}
		}
	}
}

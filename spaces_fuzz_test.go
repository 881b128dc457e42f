package parhull

import (
	"errors"
	"math"
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

// FuzzSpaceEquivalence drives random tiny instances of all five configuration
// spaces (delaunay, corner, circles, halfspace, trapezoid) through
// engine.SpaceRounds and pins the result to the definitional oracles in
// internal/core: the alive set must equal T(X) (core.Active) and the created
// count the number of configurations active after any insertion prefix; the
// 2-supported spaces are additionally compared against the brute-force
// Algorithm 1 process (core.RunGeneric — exponential in MaxSupport, so the
// 4-supported and unbounded-support spaces rely on the T(X) oracle).
//
// With a non-zero mutate parameter the input is corrupted instead — NaN or
// infinite coordinates, duplicated objects, an inverted box — and driven
// through the public API, which must come back with a typed error or valid
// output, never a panic and never an untyped error.
func FuzzSpaceEquivalence(f *testing.F) {
	for s := int64(1); s <= 3; s++ {
		for sp := uint8(0); sp < 5; sp++ {
			f.Add(s, uint8(4+s), sp, uint8(0))
		}
	}
	f.Add(int64(7), uint8(6), uint8(0), uint8(1))  // delaunay, NaN
	f.Add(int64(8), uint8(6), uint8(1), uint8(3))  // corner, duplicate
	f.Add(int64(9), uint8(6), uint8(2), uint8(1))  // circles, NaN
	f.Add(int64(10), uint8(6), uint8(3), uint8(2)) // halfspace, +Inf
	f.Add(int64(11), uint8(6), uint8(4), uint8(2)) // trapezoid, Inf
	f.Fuzz(func(t *testing.T, seed int64, n, space, mutate uint8) {
		rng := pointgen.NewRNG(seed)
		switch space % 5 {
		case 0:
			// Bounding triangle pinned in the base prefix keeps the enumerated
			// Delaunay space 2-supported for every insertion order.
			m := 2 + int(n)%6
			pts := append([]geom.Point{{0, 8}, {-8, -6}, {8, -6}},
				pointgen.UniformBall(rng, m, 2)...)
			if mutate%4 != 0 {
				_, err := Delaunay(mutateCloud(pts, mutate, seed), &Options{Engine: EngineSequential})
				typedOrNil(t, "delaunay", mutate, err)
				return
			}
			s, err := delaunay.NewSpace(pts)
			if rejected(t, "delaunay", err, delaunay.ErrDegenerate) {
				return
			}
			checkSpaceAgainstCore(t, "delaunay", s, seed)
		case 1:
			pts := pointgen.UniformBall(rng, 4+int(n)%4, 3)
			if mutate%4 != 0 {
				_, err := Hull3DDegenerate(mutateCloud(pts, mutate, seed), nil)
				typedOrNil(t, "corner", mutate, err)
				return
			}
			s, err := corner.NewSpace(pts)
			if rejected(t, "corner", err, corner.ErrDegenerate) {
				return
			}
			checkSpaceAgainstCore(t, "corner", s, seed)
		case 2:
			centers := make([]geom.Point, 2+int(n)%4)
			for i := range centers {
				centers[i] = geom.Point{rng.Float64() * 0.8, rng.Float64() * 0.8}
			}
			if mutate%4 != 0 {
				_, _, err := UnitCircleIntersection(mutateCloud(centers, mutate, seed), nil)
				typedOrNil(t, "circles", mutate, err)
				return
			}
			s, err := circles.NewSpace(centers)
			if rejected(t, "circles", err, circles.ErrDegenerate, circles.ErrDisjoint) {
				return
			}
			checkSpaceAgainstCore(t, "circles", s, seed)
		case 3:
			d := 2 + int(seed&1)
			normals := append(halfspace.BoundingSimplex(d),
				pointgen.OnSphere(rng, 2+int(n)%3, d)...)
			if mutate%4 != 0 {
				_, err := HalfspaceIntersectionDirect(mutateCloud(normals, mutate, seed), nil)
				typedOrNil(t, "halfspace", mutate, err)
				return
			}
			s, err := halfspace.NewSpace(normals)
			if rejected(t, "halfspace", err, halfspace.ErrDegenerate) {
				return
			}
			checkSpaceAgainstCore(t, "halfspace", s, seed)
		case 4:
			m := 1 + int(n)%5
			segs := make([]trapezoid.Segment, m)
			for i := range segs {
				segs[i] = trapezoid.Segment{
					Y:  100*float64(i+1)/float64(m+1) + rng.Float64(),
					XL: 1 + rng.Float64()*48,
					XR: 51 + rng.Float64()*48,
				}
			}
			box := trapezoid.Box{XL: 0, XR: 100, YB: 0, YT: 100}
			if mutate%4 != 0 {
				segs, box = mutateSegs(segs, box, mutate, seed)
				_, err := TrapezoidDecomposition(segs, box, nil)
				typedOrNil(t, "trapezoid", mutate, err)
				return
			}
			s, err := trapezoid.NewSpace(segs, box)
			if rejected(t, "trapezoid", err, trapezoid.ErrDegenerate) {
				return
			}
			checkSpaceAgainstCore(t, "trapezoid", s, seed)
		}
	})
}

// checkSpaceAgainstCore compares engine.SpaceRounds against the core oracles
// on a tail-shuffled insertion order.
func checkSpaceAgainstCore(t *testing.T, name string, s core.Space, seed int64) {
	t.Helper()
	n, base := s.NumObjects(), s.BaseSize()
	order := (&Options{Shuffle: true, Seed: seed}).insertionOrder(n, base)
	got, err := engine.SpaceRounds(s, order)
	if err != nil {
		t.Fatalf("%s: SpaceRounds: %v", name, err)
	}
	want := core.Active(s, order)
	sort.Ints(want)
	if !equalInts(got.Alive, want) {
		t.Fatalf("%s: engine alive %v, T(X) %v", name, got.Alive, want)
	}
	ever := map[int]bool{}
	for p := base; p <= n; p++ {
		for _, c := range core.Active(s, order[:p]) {
			ever[c] = true
		}
	}
	if got.Created != len(ever) {
		t.Errorf("%s: engine created %d configurations, prefix sweep says %d",
			name, got.Created, len(ever))
	}
	if s.MaxSupport() == 2 && s.NumConfigs() <= 256 {
		gen, err := core.RunGeneric(s, order)
		if err != nil {
			t.Fatalf("%s: RunGeneric: %v", name, err)
		}
		ga := append([]int(nil), gen.Alive...)
		sort.Ints(ga)
		if !equalInts(got.Alive, ga) {
			t.Fatalf("%s: engine alive %v, Algorithm 1 %v", name, got.Alive, ga)
		}
	}
}

// mutateCloud corrupts one point of a cloud: NaN coordinate (1), infinite
// coordinate (2), or exact duplicate (3).
func mutateCloud(pts []geom.Point, mutate uint8, seed int64) []geom.Point {
	i := int(uint64(seed)>>4) % len(pts)
	switch mutate % 4 {
	case 1:
		pts[i][int(uint64(seed)>>8)%len(pts[i])] = math.NaN()
	case 2:
		pts[i][int(uint64(seed)>>8)%len(pts[i])] = math.Inf(1)
	case 3:
		pts[i] = append(geom.Point(nil), pts[(i+1)%len(pts)]...)
	}
	return pts
}

// mutateSegs corrupts a trapezoid input: NaN coordinate (1), infinite
// endpoint (2), or duplicated y / inverted box (3).
func mutateSegs(segs []trapezoid.Segment, box trapezoid.Box, mutate uint8, seed int64) ([]trapezoid.Segment, trapezoid.Box) {
	i := int(uint64(seed)>>4) % len(segs)
	switch mutate % 4 {
	case 1:
		segs[i].Y = math.NaN()
	case 2:
		segs[i].XR = math.Inf(1)
	case 3:
		if len(segs) > 1 {
			segs[i].Y = segs[(i+1)%len(segs)].Y
		} else {
			box.XL, box.XR = box.XR, box.XL
		}
	}
	return segs, box
}

// typedOrNil asserts the public-API robustness contract on hostile input:
// success or a typed public error, never a panic or an untyped error.
func typedOrNil(t *testing.T, name string, mutate uint8, err error) {
	t.Helper()
	if err == nil {
		return
	}
	if errors.Is(err, ErrDegenerate) || errors.Is(err, ErrBadCoordinate) ||
		errors.Is(err, ErrCapacity) || errors.Is(err, ErrBadOption) {
		return
	}
	t.Fatalf("%s mutate=%d: untyped error %v", name, mutate, err)
}

// rejected handles space construction on clean input: nil means proceed; a
// listed typed rejection means skip the instance; anything else fails.
func rejected(t *testing.T, name string, err error, allowed ...error) bool {
	t.Helper()
	if err == nil {
		return false
	}
	for _, a := range allowed {
		if errors.Is(err, a) {
			return true
		}
	}
	t.Fatalf("%s: NewSpace: %v", name, err)
	return true
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

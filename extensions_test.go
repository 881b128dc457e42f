package parhull

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"

	"parhull/internal/leakcheck"
)

// TestHalfspaceDirectMatchesDual is the duality acceptance check: the direct
// configuration-space route (engine.SpaceRounds over Section 7's vertex
// space) must produce the same vertex set — same defining halfspace triples,
// same coordinates — as the dual-hull route.
func TestHalfspaceDirectMatchesDual(t *testing.T) {
	normals := append(HalfspaceBoundingSimplex(3), RandomSpherePoints(25, 3, 9)...)

	dual, err := HalfspaceIntersection(normals, nil)
	if err != nil {
		t.Fatalf("dual route: %v", err)
	}
	direct, err := HalfspaceIntersectionDirect(normals, nil)
	if err != nil {
		t.Fatalf("direct route: %v", err)
	}

	key := func(hs []int) string {
		cp := append([]int(nil), hs...)
		sort.Ints(cp)
		return fmt.Sprint(cp)
	}
	dv := map[string]Point{}
	for _, v := range dual.Vertices {
		dv[key(v.Halfspaces)] = v.Point
	}
	if len(dv) != len(dual.Vertices) {
		t.Fatalf("dual route returned %d vertices with %d distinct defining sets",
			len(dual.Vertices), len(dv))
	}
	if len(direct.Vertices) != len(dual.Vertices) {
		t.Fatalf("direct route found %d vertices, dual %d", len(direct.Vertices), len(dual.Vertices))
	}
	for _, v := range direct.Vertices {
		p, ok := dv[key(v.Halfspaces)]
		if !ok {
			t.Fatalf("direct vertex %v (halfspaces %v) missing from the dual route", v.Point, v.Halfspaces)
		}
		for i := range p {
			if math.Abs(p[i]-v.Point[i]) > 1e-9 {
				t.Fatalf("vertex %v: direct %v, dual %v", v.Halfspaces, v.Point, p)
			}
		}
	}
	if direct.Stats.Rounds < 1 || direct.Stats.FacetsCreated < int64(len(direct.Vertices)) {
		t.Errorf("direct stats not filled: rounds=%d created=%d",
			direct.Stats.Rounds, direct.Stats.FacetsCreated)
	}
}

// TestDelaunayEnginesAgreePublic pins the Options.Engine routing: all three
// schedules must produce the identical triangle set through the public API.
func TestDelaunayEnginesAgreePublic(t *testing.T) {
	pts := RandomPoints(300, 2, 21)
	norm := func(tris [][3]int) []string {
		out := make([]string, len(tris))
		for i, tr := range tris {
			v := []int{tr[0], tr[1], tr[2]}
			sort.Ints(v)
			out[i] = fmt.Sprint(v)
		}
		sort.Strings(out)
		return out
	}
	var want []string
	for _, e := range []Engine{EngineSequential, EngineParallel, EngineRounds} {
		res, err := Delaunay(pts, &Options{Engine: e})
		if err != nil {
			t.Fatalf("engine %v: %v", e, err)
		}
		got := norm(res.Triangles)
		if want == nil {
			want = got
			continue
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("engine %v triangle set differs from EngineSequential", e)
		}
		if e == EngineRounds && res.Stats.Rounds < 1 {
			t.Errorf("EngineRounds: Stats.Rounds = %d, want >= 1", res.Stats.Rounds)
		}
	}
}

// triangleKeys is the canonical form of a triangle set: each triangle's
// sorted vertex triple, in sorted order.
func triangleKeys(tris [][3]int) []string {
	out := make([]string, len(tris))
	for i, tr := range tris {
		v := []int{tr[0], tr[1], tr[2]}
		sort.Ints(v)
		out[i] = fmt.Sprint(v)
	}
	sort.Strings(out)
	return out
}

// halfspaceKeys is the canonical form of a half-space intersection: each
// vertex's sorted defining half-space tuple, in sorted order.
func halfspaceKeys(res *HalfspaceResult) []string {
	out := make([]string, len(res.Vertices))
	for i, v := range res.Vertices {
		hs := append([]int(nil), v.Halfspaces...)
		sort.Ints(hs)
		out[i] = fmt.Sprint(hs)
	}
	sort.Strings(out)
	return out
}

// TestHalfspaceEnginesAgreePublic is TestDelaunayEnginesAgreePublic for the
// dual half-space route: Options.Engine selects the schedule of the hull of
// the normals, all three schedules must produce the identical vertex set
// (compared as sorted half-space tuples), and EngineRounds must report its
// rounds.
func TestHalfspaceEnginesAgreePublic(t *testing.T) {
	normals := append(HalfspaceBoundingSimplex(3), RandomSpherePoints(400, 3, 22)...)
	var want []string
	for _, e := range []Engine{EngineSequential, EngineParallel, EngineRounds} {
		res, err := HalfspaceIntersection(normals, &Options{Engine: e, Shuffle: true, Seed: 5})
		if err != nil {
			t.Fatalf("engine %v: %v", e, err)
		}
		got := halfspaceKeys(res)
		if want == nil {
			want = got
		} else if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("engine %v vertex set differs from EngineSequential", e)
		}
		if e == EngineRounds && res.Stats.Rounds < 1 {
			t.Errorf("EngineRounds: Stats.Rounds = %d, want >= 1", res.Stats.Rounds)
		}
	}
}

// TestTrapezoidDecompositionPublic checks the decomposition is a genuine
// partition of the box avoiding every segment, is insertion-order
// independent, and that the trivial and hostile inputs behave.
func TestTrapezoidDecompositionPublic(t *testing.T) {
	box := TrapezoidBox{XL: 0, XR: 100, YB: 0, YT: 100}

	cells, err := TrapezoidDecomposition(nil, box, nil)
	if err != nil || len(cells) != 1 || cells[0].XL != 0 || cells[0].YT != 100 {
		t.Fatalf("empty input: cells=%v err=%v, want the box", cells, err)
	}

	segs := []TrapezoidSegment{
		{Y: 50, XL: 10, XR: 90},
		{Y: 70, XL: 20, XR: 30},
		{Y: 75, XL: 40, XR: 55},
		{Y: 30, XL: 15, XR: 80},
	}
	cells, err = TrapezoidDecomposition(segs, box, nil)
	if err != nil {
		t.Fatal(err)
	}
	area := 0.0
	for _, c := range cells {
		if c.XL < box.XL || c.XR > box.XR || c.YB < box.YB || c.YT > box.YT || c.XL >= c.XR || c.YB >= c.YT {
			t.Fatalf("cell %+v escapes the box or is empty", c)
		}
		area += (c.XR - c.XL) * (c.YT - c.YB)
		for i, sg := range segs {
			if sg.Y > c.YB && sg.Y < c.YT && sg.XR > c.XL && sg.XL < c.XR {
				t.Fatalf("segment %d intrudes cell %+v", i, c)
			}
		}
	}
	if want := (box.XR - box.XL) * (box.YT - box.YB); math.Abs(area-want) > 1e-6 {
		t.Fatalf("cells cover area %v, box has %v", area, want)
	}

	cellSet := func(cs []TrapezoidCell) string {
		out := make([]string, len(cs))
		for i, c := range cs {
			out[i] = fmt.Sprintf("%v %v %v %v %v", c.XL, c.XR, c.YB, c.YT, c.Segments)
		}
		sort.Strings(out)
		return fmt.Sprint(out)
	}
	shuffled, err := TrapezoidDecomposition(segs, box, &Options{Shuffle: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if cellSet(shuffled) != cellSet(cells) {
		t.Fatal("decomposition depends on insertion order")
	}

	if _, err := TrapezoidDecomposition([]TrapezoidSegment{{Y: 50, XL: 10, XR: 90}, {Y: 50, XL: 91, XR: 95}},
		box, nil); !errors.Is(err, ErrDegenerate) {
		t.Errorf("duplicate y: err = %v, want ErrDegenerate", err)
	}
	if _, err := TrapezoidDecomposition([]TrapezoidSegment{{Y: math.NaN(), XL: 10, XR: 90}},
		box, nil); !errors.Is(err, ErrBadCoordinate) {
		t.Errorf("NaN y: err = %v, want ErrBadCoordinate", err)
	}
	if _, err := TrapezoidDecomposition(nil, TrapezoidBox{XL: 1, XR: 0, YB: 0, YT: 1},
		nil); !errors.Is(err, ErrDegenerate) {
		t.Errorf("inverted box: err = %v, want ErrDegenerate", err)
	}
}

// TestExtensionsCancellation drives every space entry point with a
// pre-canceled context under the goroutine-leak checker: each must come back
// with ErrCanceled (context.Canceled still in the chain) and no stray
// workers.
func TestExtensionsCancellation(t *testing.T) {
	leakcheck.Check(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	centers := make([]Point, 20)
	for i := range centers {
		centers[i] = Point{float64(i%5) * 0.15, float64(i/5) * 0.15}
	}
	segs := make([]TrapezoidSegment, 10)
	for i := range segs {
		segs[i] = TrapezoidSegment{Y: float64(i+1) * 9, XL: 1 + float64(i), XR: 99 - float64(i)}
	}
	box := TrapezoidBox{XL: 0, XR: 100, YB: 0, YT: 100}

	runs := []struct {
		name string
		run  func(o *Options) error
	}{
		{"Delaunay/seq", func(o *Options) error {
			o.Engine = EngineSequential
			_, err := Delaunay(RandomPoints(200, 2, 3), o)
			return err
		}},
		{"Delaunay/par", func(o *Options) error {
			o.Engine = EngineParallel
			_, err := Delaunay(RandomPoints(200, 2, 3), o)
			return err
		}},
		{"Delaunay/rounds", func(o *Options) error {
			o.Engine = EngineRounds
			_, err := Delaunay(RandomPoints(200, 2, 3), o)
			return err
		}},
		{"HalfspaceIntersectionDirect", func(o *Options) error {
			_, err := HalfspaceIntersectionDirect(
				append(HalfspaceBoundingSimplex(3), RandomSpherePoints(15, 3, 4)...), o)
			return err
		}},
		{"UnitCircleIntersection", func(o *Options) error {
			_, _, err := UnitCircleIntersection(centers, o)
			return err
		}},
		{"TrapezoidDecomposition", func(o *Options) error {
			_, err := TrapezoidDecomposition(segs, box, o)
			return err
		}},
		{"Hull3DDegenerate", func(o *Options) error {
			_, err := Hull3DDegenerate(RandomSpherePoints(30, 3, 5), o)
			return err
		}},
	}
	for _, r := range runs {
		err := r.run(&Options{Context: ctx})
		if !errors.Is(err, ErrCanceled) {
			t.Errorf("%s: err = %v, want ErrCanceled", r.name, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: context.Canceled lost from the chain: %v", r.name, err)
		}
		if err := r.run(&Options{Workers: -1}); !errors.Is(err, ErrBadOption) {
			t.Errorf("%s: Workers=-1: err = %v, want ErrBadOption", r.name, err)
		}
	}
}

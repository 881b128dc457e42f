package parhull

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"
)

// facetKeys canonicalizes a public d-dimensional result to a facet multiset
// over original input indices.
func facetKeys(res *HullDResult) map[string]int {
	m := make(map[string]int, len(res.Facets))
	for _, f := range res.Facets {
		vs := append([]int(nil), f.Vertices...)
		sort.Ints(vs)
		m[fmt.Sprint(vs)]++
	}
	return m
}

// TestPreHullEquivalencePublic is the end-to-end exactness property of the
// pre-hull reduction: with the reduction forced on, every engine must report
// the identical hull — facet for facet, in original input indices — as the
// direct (PreHullOff) run. This is the public-API form of the invariant the
// internal/prehull tests pin per block.
func TestPreHullEquivalencePublic(t *testing.T) {
	pts := RandomPoints(5000, 3, 11)
	base, err := HullD(pts, &Options{Engine: EngineSequential, Shuffle: true, Seed: 3, PreHull: PreHullOff})
	if err != nil {
		t.Fatal(err)
	}
	want := facetKeys(base)
	wantV := sortedVertices(base.Vertices)
	for _, eng := range []Engine{EngineSequential, EngineParallel, EngineRounds} {
		o := &Options{Engine: eng, Shuffle: true, Seed: 3, PreHull: PreHullOn}
		res, err := HullD(pts, o)
		if err != nil {
			t.Fatalf("engine=%d: %v", eng, err)
		}
		if res.Stats.PreHullKept == 0 || res.Stats.PreHullKept >= len(pts) {
			t.Fatalf("engine=%d: PreHullKept = %d, expected a real reduction", eng, res.Stats.PreHullKept)
		}
		if res.Stats.PreHullBlocks < 2 {
			t.Fatalf("engine=%d: PreHullBlocks = %d", eng, res.Stats.PreHullBlocks)
		}
		got := facetKeys(res)
		if len(got) != len(want) {
			t.Fatalf("engine=%d: %d facets vs %d direct", eng, len(got), len(want))
		}
		for k, c := range want {
			if got[k] != c {
				t.Fatalf("engine=%d: facet %s multiplicity %d vs %d", eng, k, got[k], c)
			}
		}
		gotV := sortedVertices(res.Vertices)
		if fmt.Sprint(gotV) != fmt.Sprint(wantV) {
			t.Fatalf("engine=%d: vertex sets differ", eng)
		}
	}
}

// TestPreHull2DEquivalencePublic is the 2D version: the hull vertex set
// must be invariant under pre-hull on/off. (The internal prehull tests cover
// Z-order against contiguous blocking.)
func TestPreHull2DEquivalencePublic(t *testing.T) {
	pts := RandomPoints(6000, 2, 12)
	base, err := Hull2D(pts, &Options{Shuffle: true, Seed: 5, PreHull: PreHullOff})
	if err != nil {
		t.Fatal(err)
	}
	want := sortedVertices(base.Vertices)
	res, err := Hull2D(pts, &Options{Shuffle: true, Seed: 5, PreHull: PreHullOn})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PreHullKept == 0 || res.Stats.PreHullKept >= len(pts)/2 {
		t.Fatalf("PreHullKept = %d of %d, expected a strong reduction", res.Stats.PreHullKept, len(pts))
	}
	got := sortedVertices(res.Vertices)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("vertices %v, want %v", got, want)
	}
}

// TestPreHullAutoHeuristic checks both sides of the Auto probe: a large
// uniform ball (interior-heavy) must trigger the reduction, a same-size
// sphere (every point a hull vertex) must skip it.
func TestPreHullAutoHeuristic(t *testing.T) {
	ball := RandomPoints(20000, 3, 13)
	res, err := HullD(ball, &Options{Engine: EngineSequential, Shuffle: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PreHullKept == 0 {
		t.Fatal("auto mode skipped the reduction on a uniform ball")
	}
	if res.Stats.PreHullKept >= len(ball)/2 {
		t.Fatalf("ball barely reduced: kept %d of %d", res.Stats.PreHullKept, len(ball))
	}

	sphere := RandomSpherePoints(20000, 3, 13)
	res, err = HullD(sphere, &Options{Engine: EngineSequential, Shuffle: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PreHullKept != 0 || res.Stats.PreHullBlocks != 0 {
		t.Fatalf("auto mode ran the reduction on a sphere (kept %d, blocks %d)",
			res.Stats.PreHullKept, res.Stats.PreHullBlocks)
	}
	// Below the size floor the probe never runs, whatever the shape.
	small := RandomPoints(2000, 3, 13)
	res, err = HullD(small, &Options{Engine: EngineSequential})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PreHullKept != 0 {
		t.Fatalf("auto mode reduced a %d-point input below the floor", len(small))
	}
}

// TestPreHullWorkersOption pins the Theorem 5.5 side of Options.Workers: the
// pool width changes the schedule, never the hull.
func TestPreHullWorkersOption(t *testing.T) {
	pts := RandomPoints(4000, 3, 14)
	var want map[string]int
	for _, w := range []int{0, 1, 3, 8} {
		res, err := HullD(pts, &Options{Shuffle: true, Seed: 9, PreHull: PreHullOn, Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		got := facetKeys(res)
		if want == nil {
			want = got
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d facets vs %d", w, len(got), len(want))
		}
		for k, c := range want {
			if got[k] != c {
				t.Fatalf("workers=%d: facet multiset differs", w)
			}
		}
	}
}

// TestPreHullCancelPublic checks the typed-error contract through the
// pre-hull path: an already-canceled context surfaces as ErrCanceled before
// any block sub-hull runs.
func TestPreHullCancelPublic(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pts := RandomPoints(4000, 3, 15)
	_, err := HullD(pts, &Options{PreHull: PreHullOn, Context: ctx})
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
}

// TestPreHullCullPublic drives an input large enough for the stage-1
// interior cull (the block-stage-only tests above sit below its size floor):
// the reduction must get dramatically stronger — a few percent of the input
// surviving — while the reported hull stays facet-identical to a direct run.
func TestPreHullCullPublic(t *testing.T) {
	pts := RandomPoints(30000, 3, 16)
	base, err := HullD(pts, &Options{Engine: EngineSequential, Shuffle: true, Seed: 2, PreHull: PreHullOff})
	if err != nil {
		t.Fatal(err)
	}
	res, err := HullD(pts, &Options{Shuffle: true, Seed: 2, PreHull: PreHullOn})
	if err != nil {
		t.Fatal(err)
	}
	if kept := res.Stats.PreHullKept; kept == 0 || kept > len(pts)/5 {
		t.Fatalf("PreHullKept = %d of %d, expected the interior cull to engage", kept, len(pts))
	}
	want, got := facetKeys(base), facetKeys(res)
	if len(got) != len(want) {
		t.Fatalf("%d facets vs %d direct", len(got), len(want))
	}
	for k, c := range want {
		if got[k] != c {
			t.Fatalf("facet %s multiplicity %d vs %d", k, got[k], c)
		}
	}
}

package parhull

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"parhull/internal/leakcheck"
)

// facetKey is a canonical string form of a facet's sorted vertex set.
func facetKey(f Facet) string {
	vs := append([]int(nil), f.Vertices...)
	sort.Ints(vs)
	return fmt.Sprint(vs)
}

// facetMultiset maps canonical facet keys to multiplicities.
func facetMultiset(fs []Facet) map[string]int {
	m := make(map[string]int, len(fs))
	for _, f := range fs {
		m[facetKey(f)]++
	}
	return m
}

// builderConfigs spans every schedule, two executor widths, and both
// pre-hull settings — the axes across which Build-on-a-reused-Builder must
// reproduce a fresh call exactly.
func builderConfigs() []Options {
	return []Options{
		{Engine: EngineSequential, Shuffle: true, Seed: 3, PreHull: PreHullOff},
		{Engine: EngineParallel, Shuffle: true, Seed: 3, PreHull: PreHullOff},
		{Engine: EngineParallel, Workers: 1, Shuffle: true, Seed: 3, PreHull: PreHullOff},
		{Engine: EngineRounds, Shuffle: true, Seed: 3, PreHull: PreHullOff},
		{Engine: EngineParallel, Shuffle: true, Seed: 3, PreHull: PreHullOn},
		{Engine: EngineRounds, Shuffle: true, Seed: 3, PreHull: PreHullOn},
	}
}

// TestBuilderReuseEquivalence runs several consecutive Builds on one Builder
// with varying inputs (different sizes, so every pooled buffer both grows and
// shrinks) and checks each result against a fresh one-shot call: identical
// facet multiset and vertex list, for all schedules and pre-hull modes.
func TestBuilderReuseEquivalence(t *testing.T) {
	leakcheck.Check(t)
	inputs := [][]Point{
		RandomPoints(900, 3, 1),
		RandomPoints(2400, 3, 2),
		RandomPoints(600, 3, 3),
		RandomSpherePoints(800, 3, 4),
		RandomPoints(1200, 4, 5),
	}
	for ci, o := range builderConfigs() {
		o := o
		t.Run(fmt.Sprintf("config%d", ci), func(t *testing.T) {
			b := NewBuilder(&o)
			defer b.Close()
			for round := 0; round < 2; round++ {
				for pi, pts := range inputs {
					got, err := b.Build(pts)
					if err != nil {
						t.Fatalf("round %d input %d: reused Build: %v", round, pi, err)
					}
					fresh, err := HullD(pts, &o)
					if err != nil {
						t.Fatalf("round %d input %d: fresh HullD: %v", round, pi, err)
					}
					if !reflect.DeepEqual(facetMultiset(got.Facets), facetMultiset(fresh.Facets)) {
						t.Fatalf("round %d input %d: facet multiset differs from fresh call", round, pi)
					}
					if !reflect.DeepEqual(got.Vertices, fresh.Vertices) {
						t.Fatalf("round %d input %d: vertices differ: reused %v fresh %v",
							round, pi, got.Vertices, fresh.Vertices)
					}
				}
			}
		})
	}
}

// TestBuilderReuseEquivalence2D is the planar analog.
func TestBuilderReuseEquivalence2D(t *testing.T) {
	leakcheck.Check(t)
	inputs := [][]Point{
		RandomPoints(700, 2, 1),
		RandomPoints(2000, 2, 2),
		RandomPoints(500, 2, 3),
	}
	for ci, o := range builderConfigs() {
		o := o
		t.Run(fmt.Sprintf("config%d", ci), func(t *testing.T) {
			b := NewBuilder(&o)
			defer b.Close()
			for round := 0; round < 2; round++ {
				for pi, pts := range inputs {
					got, err := b.Build2D(pts)
					if err != nil {
						t.Fatalf("round %d input %d: reused Build2D: %v", round, pi, err)
					}
					fresh, err := Hull2D(pts, &o)
					if err != nil {
						t.Fatalf("round %d input %d: fresh Hull2D: %v", round, pi, err)
					}
					if !reflect.DeepEqual(got.Vertices, fresh.Vertices) {
						t.Fatalf("round %d input %d: vertices differ", round, pi)
					}
				}
			}
		})
	}
}

// TestBuilderResultInvalidation pins the recycling contract: the next Build
// overwrites the previous result's backing arrays, and copying is the
// documented way to keep two results alive.
func TestBuilderResultInvalidation(t *testing.T) {
	b := NewBuilder(nil)
	defer b.Close()
	pts1 := RandomPoints(400, 3, 1)
	r1, err := b.Build(pts1)
	if err != nil {
		t.Fatal(err)
	}
	keep := append([]int(nil), r1.Vertices...)
	if _, err := b.Build(RandomPoints(400, 3, 2)); err != nil {
		t.Fatal(err)
	}
	fresh, err := HullD(pts1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(keep, fresh.Vertices) {
		t.Fatalf("copied result changed: %v vs %v", keep, fresh.Vertices)
	}
}

// TestBuilderReuseAfterError checks the fault half of the contract: a Build
// aborted mid-flight (canceled context, degenerate input, bad coordinate)
// leaves the Builder fully reusable, with no leaked workers and the next
// Build matching a fresh call.
func TestBuilderReuseAfterError(t *testing.T) {
	leakcheck.Check(t)
	o := &Options{Shuffle: true, Seed: 9}
	b := NewBuilder(o)
	defer b.Close()
	pts := RandomPoints(3000, 3, 7)

	if _, err := b.Build(pts); err != nil {
		t.Fatalf("first Build: %v", err)
	}

	// Canceled context: the engines abort cooperatively.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o.Context = ctx
	if _, err := b.Build(pts); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled Build: got %v, want ErrCanceled", err)
	}
	o.Context = nil

	// Degenerate input: all points coplanar in 3D.
	flat := make([]Point, 50)
	for i := range flat {
		flat[i] = Point{float64(i % 7), float64(i / 7), 0}
	}
	if _, err := b.Build(flat); !errors.Is(err, ErrDegenerate) {
		t.Fatalf("degenerate Build: got %v, want ErrDegenerate", err)
	}

	// Bad coordinate.
	bad := RandomPoints(50, 3, 1)
	bad[17] = Point{0, 1, nan()}
	if _, err := b.Build(bad); !errors.Is(err, ErrBadCoordinate) {
		t.Fatalf("bad-coordinate Build: got %v, want ErrBadCoordinate", err)
	}

	// After every failure mode, the Builder still produces correct output.
	got, err := b.Build(pts)
	if err != nil {
		t.Fatalf("Build after failures: %v", err)
	}
	fresh, err := HullD(pts, &Options{Shuffle: true, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Vertices, fresh.Vertices) {
		t.Fatal("post-failure Build differs from fresh call")
	}
}

func nan() float64 {
	var zero float64
	return zero / zero
}

// TestBuilderClose pins the Close contract: idempotent, later Builds error,
// the last result stays valid.
func TestBuilderClose(t *testing.T) {
	leakcheck.Check(t)
	b := NewBuilder(nil)
	pts := RandomPoints(300, 3, 5)
	res, err := b.Build(pts)
	if err != nil {
		t.Fatal(err)
	}
	verts := append([]int(nil), res.Vertices...)
	b.Close()
	b.Close() // idempotent
	if _, err := b.Build(pts); !errors.Is(err, ErrBadOption) {
		t.Fatalf("Build after Close: got %v, want ErrBadOption", err)
	}
	if _, err := b.Build2D(RandomPoints(100, 2, 1)); !errors.Is(err, ErrBadOption) {
		t.Fatalf("Build2D after Close: got %v, want ErrBadOption", err)
	}
	if !reflect.DeepEqual(verts, res.Vertices) {
		t.Fatal("last result invalidated by Close")
	}
}

// TestBuilderMapLadderRetained checks that a Builder using a fixed CAS table
// climbs the degradation ladder on an undersized table and still matches a
// fresh call, across repeated Builds (the doubled table is retained).
func TestBuilderMapLadderRetained(t *testing.T) {
	leakcheck.Check(t)
	o := &Options{Map: MapCAS, MapCapacity: 8, Shuffle: true, Seed: 2}
	b := NewBuilder(o)
	defer b.Close()
	pts := RandomPoints(2000, 3, 11)
	for i := 0; i < 3; i++ {
		got, err := b.Build(pts)
		if err != nil {
			t.Fatalf("build %d: %v", i, err)
		}
		fresh, err := HullD(pts, o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Vertices, fresh.Vertices) {
			t.Fatalf("build %d: vertices differ from fresh call", i)
		}
	}
}

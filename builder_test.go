package parhull

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

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

// TestBuilderCanceledBuildRidgeTable: a Build canceled mid-construction
// leaves ridges waiting in the Builder's retained sharded table (a
// finished one leaves it empty). The next Build must rewind that table and
// be facet-identical to a fresh Builder's, under Par and Rounds, and leave
// the table drained. The cancel is timed, so it retries with a longer or
// shorter delay until one lands inside the engine.
func TestBuilderCanceledBuildRidgeTable(t *testing.T) {
	leakcheck.Check(t)
	pts := RandomSpherePoints(20000, 3, 12)
	for _, e := range []struct {
		name string
		eng  Engine
	}{{"par", EngineParallel}, {"rounds", EngineRounds}} {
		t.Run(e.name, func(t *testing.T) {
			o := &Options{Engine: e.eng, Workers: 2, Shuffle: true, Seed: 4}
			fresh, err := HullD(pts, o)
			if err != nil {
				t.Fatal(err)
			}
			b := NewBuilder(o)
			defer b.Close()
			left, delay := 0, 8*time.Millisecond
			for attempt := 0; left == 0 && attempt < 20; attempt++ {
				ctx, cancel := context.WithTimeout(context.Background(), delay)
				o.Context = ctx
				_, err := b.Build(pts)
				cancel()
				o.Context = nil
				switch {
				case err == nil:
					delay /= 2 // finished first: cancel sooner
				case !errors.Is(err, ErrCanceled):
					t.Fatalf("canceled Build: %v", err)
				case b.mapsD.sharded == nil || b.mapsD.sharded.Len() == 0:
					delay *= 2 // canceled before the engine ran: cancel later
				default:
					left = b.mapsD.sharded.Len()
				}
			}
			if left == 0 {
				t.Fatal("no cancel landed inside the engine")
			}
			t.Logf("the canceled Build left %d ridges in the table", left)
			got, err := b.Build(pts)
			if err != nil {
				t.Fatalf("Build after a cancel: %v", err)
			}
			if !reflect.DeepEqual(facetMultiset(got.Facets), facetMultiset(fresh.Facets)) || !reflect.DeepEqual(got.Vertices, fresh.Vertices) {
				t.Fatalf("Build after a cancel that left %d ridges differs from a fresh Builder's", left)
			}
			if got.Stats.FacetsCreated != fresh.Stats.FacetsCreated || got.Stats.VisibilityTests != fresh.Stats.VisibilityTests {
				t.Fatalf("created %d, vtests %d after a cancel; fresh %d, %d",
					got.Stats.FacetsCreated, got.Stats.VisibilityTests, fresh.Stats.FacetsCreated, fresh.Stats.VisibilityTests)
			}
			if n := b.mapsD.sharded.Len(); n != 0 {
				t.Fatalf("%d ridges left in the table after a finished Build", n)
			}
		})
	}
}

// TestPeakBytesAccount pins Stats.PeakBytes as an exact account of the
// construction's own structures, and counting as always on. On a fresh
// Builder with one worker and no pre-hull, the first build's arenas and
// ridge table are all the Builder retains, so under every engine and ridge
// table its PeakBytes is RetainedBytes after it plus the point store's
// coordinates, and a second build of the same input reports the same
// PeakBytes. Build, Build2D and Delaunay report PeakBytes and visibility
// tests under every engine.
func TestPeakBytesAccount(t *testing.T) {
	ball := RandomPoints(3000, 3, 8)
	disk := RandomPoints(3000, 2, 9)
	routes := []struct {
		name  string
		pts   []Point
		build func(*Builder, []Point) (Stats, error)
	}{
		{"Build", ball, func(b *Builder, p []Point) (Stats, error) {
			r, err := b.Build(p)
			if err != nil {
				return Stats{}, err
			}
			return r.Stats, nil
		}},
		{"Build2D", disk, func(b *Builder, p []Point) (Stats, error) {
			r, err := b.Build2D(p)
			if err != nil {
				return Stats{}, err
			}
			return r.Stats, nil
		}},
	}
	for _, e := range []Engine{EngineSequential, EngineParallel, EngineRounds} {
		for _, m := range []MapKind{MapSharded, MapCAS, MapTAS} {
			for _, r := range routes {
				label := fmt.Sprintf("%s engine %d map %d", r.name, e, m)
				b := NewBuilder(&Options{Engine: e, Map: m, PreHull: PreHullOff, Workers: 1})
				cold, err := r.build(b, r.pts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				coords := int64(8 * len(r.pts) * len(r.pts[0]))
				if want := b.RetainedBytes() + coords; cold.PeakBytes != want {
					t.Errorf("%s: cold PeakBytes %d, want RetainedBytes %d + coordinates %d = %d",
						label, cold.PeakBytes, b.RetainedBytes(), coords, want)
				}
				if cold.VisibilityTests <= 0 {
					t.Errorf("%s: VisibilityTests %d, want > 0", label, cold.VisibilityTests)
				}
				warm, err := r.build(b, r.pts)
				if err != nil {
					t.Fatalf("%s, warm: %v", label, err)
				}
				if warm.PeakBytes != cold.PeakBytes {
					t.Errorf("%s: warm PeakBytes %d, cold %d", label, warm.PeakBytes, cold.PeakBytes)
				}
				b.Close()
			}
		}
		res, err := Delaunay(disk[:500], &Options{Engine: e, Shuffle: true, Seed: 1})
		if err != nil {
			t.Fatalf("Delaunay engine %d: %v", e, err)
		}
		if res.Stats.PeakBytes <= 0 || res.Stats.VisibilityTests <= 0 {
			t.Errorf("Delaunay engine %d: PeakBytes %d, VisibilityTests %d, want both > 0",
				e, res.Stats.PeakBytes, res.Stats.VisibilityTests)
		}
	}
}

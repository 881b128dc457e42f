package parhull

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"parhull/internal/conmap"
	"parhull/internal/geom"
	"parhull/internal/leakcheck"
)

// sentinels is the complete public error surface; the contract test checks
// every API error matches exactly one of them.
var sentinels = map[string]error{
	"ErrDegenerate":    ErrDegenerate,
	"ErrBadCoordinate": ErrBadCoordinate,
	"ErrCapacity":      ErrCapacity,
	"ErrCanceled":      ErrCanceled,
	"ErrBadOption":     ErrBadOption,
}

// wantExactly asserts err matches the named sentinel and none of the others.
func wantExactly(t *testing.T, label string, err error, want string) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: nil error, want %s", label, want)
	}
	for name, s := range sentinels {
		if got := errors.Is(err, s); got != (name == want) {
			t.Errorf("%s: errors.Is(err, %s) = %v (err = %v)", label, name, got, err)
		}
	}
}

// TestTypedErrorContract is the errors.Is matrix of the robustness layer:
// for every engine x map x kernel combination, each rejection class comes
// back wrapped in its one public sentinel — and the internal sentinel stays
// in the chain for callers that look deeper.
func TestTypedErrorContract(t *testing.T) {
	leakcheck.Check(t)
	collinear2 := []Point{{0, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 4}}
	nan2 := []Point{{0, 0}, {1, 0}, {0, 1}, {math.NaN(), 0.5}}
	coplanar3 := []Point{{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {1, 1, 0}, {2, 1, 0}, {1, 2, 0}}
	inf3 := []Point{{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {math.Inf(1), 0, 0}}
	ragged2 := []Point{{0, 0}, {0, 1}, {1, 0}, {1, 1, 1}}
	line1 := []Point{{0}, {1}, {2}}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	for _, e := range []Engine{EngineSequential, EngineParallel, EngineRounds} {
		for _, m := range []MapKind{MapSharded, MapCAS, MapTAS} {
			o := func() *Options { return &Options{Engine: e, Map: m} }

			if _, err := Hull2D(collinear2, o()); true {
				wantExactly(t, "2D collinear", err, "ErrDegenerate")
			}
			if _, err := Hull2D(nan2, o()); true {
				wantExactly(t, "2D NaN", err, "ErrBadCoordinate")
				if !errors.Is(err, geom.ErrBadCoordinate) {
					t.Errorf("2D NaN: internal sentinel lost from chain: %v", err)
				}
			}
			if _, err := HullD(coplanar3, o()); true {
				wantExactly(t, "3D coplanar", err, "ErrDegenerate")
			}
			if _, err := HullD(inf3, o()); true {
				wantExactly(t, "3D Inf", err, "ErrBadCoordinate")
			}

			oc := o()
			oc.Context = canceled
			if _, err := Hull2D(RandomPoints(50, 2, 1), oc); true {
				wantExactly(t, "2D pre-canceled", err, "ErrCanceled")
				if !errors.Is(err, context.Canceled) {
					t.Errorf("2D pre-canceled: context.Canceled lost from chain: %v", err)
				}
			}
			oc2 := o()
			oc2.Context = canceled
			if _, err := HullD(RandomSpherePoints(50, 3, 1), oc2); true {
				wantExactly(t, "3D pre-canceled", err, "ErrCanceled")
			}

			if m != MapSharded && e != EngineSequential {
				ocap := o()
				ocap.MapCapacity = 8
				ocap.NoMapFallback = true
				if _, err := Hull2D(RandomSpherePoints(300, 2, 2), ocap); true {
					wantExactly(t, "2D capacity", err, "ErrCapacity")
					if !errors.Is(err, conmap.ErrCapacity) {
						t.Errorf("2D capacity: internal sentinel lost from chain: %v", err)
					}
				}
				dcap := o()
				dcap.MapCapacity = 8
				dcap.NoMapFallback = true
				if _, err := HullD(RandomSpherePoints(200, 3, 3), dcap); true {
					wantExactly(t, "3D capacity", err, "ErrCapacity")
				}
			}

			// Empty input is degenerate on every hull route; input of the
			// wrong dimension is a bad option.
			if _, err := HullD(nil, o()); true {
				wantExactly(t, "HullD empty", err, "ErrDegenerate")
			}
			if _, err := Hull3D(nil, o()); true {
				wantExactly(t, "Hull3D empty", err, "ErrDegenerate")
			}
			b := NewBuilder(o())
			if _, err := b.Build(nil); true {
				wantExactly(t, "Builder.Build empty", err, "ErrDegenerate")
			}
			b.Close()
			if _, err := HalfspaceIntersection(nil, o()); true {
				wantExactly(t, "HalfspaceIntersection empty", err, "ErrDegenerate")
			}
			if _, err := Hull2D(RandomPoints(20, 3, 4), o()); true {
				wantExactly(t, "Hull2D of 3D points", err, "ErrBadOption")
			}
			if _, err := HullD(ragged2, o()); true {
				wantExactly(t, "HullD ragged", err, "ErrBadOption")
			}
			if _, err := HullD(line1, o()); true {
				wantExactly(t, "HullD d=1", err, "ErrBadOption")
			}
			if _, err := Delaunay(ragged2, o()); true {
				wantExactly(t, "Delaunay ragged", err, "ErrBadOption")
			}

			// Unshuffled rotated cubes start with four corners of one face,
			// a base simplex thin enough that its float centroid can round
			// outside it: that must be ErrDegenerate, not an untyped error.
			thin := 0
			for seed := int64(1); seed <= 20; seed++ {
				if _, err := Hull3D(rotatedCube(seed), o()); err != nil {
					wantExactly(t, fmt.Sprintf("rotated cube %d", seed), err, "ErrDegenerate")
					thin++
				}
			}
			if thin == 0 {
				t.Error("no rotated cube hit the thin-base check")
			}
		}
	}
	if _, _, err := UnitCircleIntersection(ragged2, nil); true {
		wantExactly(t, "UnitCircleIntersection ragged", err, "ErrBadOption")
	}
	if _, err := Hull3DDegenerate([]Point{{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0}}, nil); true {
		wantExactly(t, "Hull3DDegenerate ragged", err, "ErrBadOption")
	}
}

// TestBadOptionValidation pins satellite (c): statically invalid Options come
// back as ErrBadOption from every entry point that takes Options, before any
// work starts.
func TestBadOptionValidation(t *testing.T) {
	bad := &Options{MapCapacity: -1}
	pts2 := RandomPoints(20, 2, 1)
	pts3 := RandomPoints(20, 3, 1)
	if _, err := Hull2D(pts2, bad); !errors.Is(err, ErrBadOption) {
		t.Errorf("Hull2D: %v, want ErrBadOption", err)
	}
	if _, err := HullD(pts3, bad); !errors.Is(err, ErrBadOption) {
		t.Errorf("HullD: %v, want ErrBadOption", err)
	}
	if _, err := HalfspaceIntersection(pts3, bad); !errors.Is(err, ErrBadOption) {
		t.Errorf("HalfspaceIntersection: %v, want ErrBadOption", err)
	}
	if _, err := Delaunay(pts2, bad); !errors.Is(err, ErrBadOption) {
		t.Errorf("Delaunay: %v, want ErrBadOption", err)
	}
	if _, err := Hull2D(pts2, &Options{Engine: Engine(99)}); !errors.Is(err, ErrBadOption) {
		t.Errorf("bad engine: want ErrBadOption")
	}
	if _, err := Hull2D(pts2, &Options{Workers: -1}); !errors.Is(err, ErrBadOption) {
		t.Errorf("negative Workers: want ErrBadOption")
	}
	if _, err := HullD(pts3, &Options{PreHull: PreHullMode(9)}); !errors.Is(err, ErrBadOption) {
		t.Errorf("bad PreHull mode: want ErrBadOption")
	}
	if _, err := Hull3D(pts2, nil); !errors.Is(err, ErrBadOption) {
		t.Errorf("Hull3D on 2D points: want ErrBadOption")
	}
}

// sortedVertices is a comparison helper.
func sortedVertices(v []int) []int {
	out := append([]int(nil), v...)
	sort.Ints(out)
	return out
}

// TestDegradationLadderRetry undersizes the fixed table so that one or two
// doubled-table restarts suffice: the run must succeed without falling back
// to the sharded map, record the retries in Stats, and produce the same hull
// as a clean run.
func TestDegradationLadderRetry(t *testing.T) {
	leakcheck.Check(t)
	pts := RandomSpherePoints(100, 2, 5)
	clean, err := Hull2D(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []MapKind{MapCAS, MapTAS} {
		res, err := Hull2D(pts, &Options{Map: m, MapCapacity: 32})
		if err != nil {
			t.Fatalf("map %d: ladder did not recover: %v", m, err)
		}
		if res.Stats.CapacityRetries < 1 || res.Stats.CapacityRetries > 2 {
			t.Errorf("map %d: CapacityRetries = %d, want 1..2", m, res.Stats.CapacityRetries)
		}
		if res.Stats.MapFallback {
			t.Errorf("map %d: fell back to sharded, doubling should have sufficed", m)
		}
		a, b := sortedVertices(clean.Vertices), sortedVertices(res.Vertices)
		if len(a) != len(b) {
			t.Fatalf("map %d: %d hull vertices vs clean %d", m, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("map %d: hull differs from clean run", m)
			}
		}
	}
}

// TestDegradationLadderFallback undersizes the table beyond what the bounded
// retries can absorb: the ladder must land on the sharded map, record both
// Stats fields, and still produce the clean hull.
func TestDegradationLadderFallback(t *testing.T) {
	leakcheck.Check(t)
	pts := RandomSpherePoints(400, 2, 6)
	clean, err := Hull2D(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []Engine{EngineParallel, EngineRounds} {
		res, err := Hull2D(pts, &Options{Engine: e, Map: MapCAS, MapCapacity: 4})
		if err != nil {
			t.Fatalf("engine %d: ladder did not recover: %v", e, err)
		}
		if res.Stats.CapacityRetries != 2 {
			t.Errorf("engine %d: CapacityRetries = %d, want 2 (ladder exhausted)", e, res.Stats.CapacityRetries)
		}
		if !res.Stats.MapFallback {
			t.Errorf("engine %d: MapFallback = false, want sharded fallback", e)
		}
		a, b := sortedVertices(clean.Vertices), sortedVertices(res.Vertices)
		if len(a) != len(b) {
			t.Fatalf("engine %d: %d hull vertices vs clean %d", e, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("engine %d: hull differs from clean run", e)
			}
		}
	}
}

// TestCancellationPromptness is the acceptance bar of the tentpole: on a
// 100k-point 3D ball, a context canceled early into the run must come back
// as ErrCanceled in a fraction of the clean runtime, with the pool quiesced.
func TestCancellationPromptness(t *testing.T) {
	leakcheck.Check(t)
	pts := RandomPoints(100_000, 3, 7)
	start := time.Now()
	if _, err := HullD(pts, nil); err != nil {
		t.Fatal(err)
	}
	cleanDur := time.Since(start)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(cleanDur / 20)
		cancel()
	}()
	start = time.Now()
	_, err := HullD(pts, &Options{Context: ctx})
	gotDur := time.Since(start)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	// Generous bound (clean/2 + scheduling slack) to stay robust on loaded
	// machines while still catching a cancellation that only fires at the end.
	if limit := cleanDur/2 + 50*time.Millisecond; gotDur > limit {
		t.Errorf("canceled run took %v, want well under clean %v (limit %v)", gotDur, cleanDur, limit)
	}
}

// TestHull3DDegenerateCollinear is satellite (a)'s public regression: the
// all-collinear 3D input that used to escape as an index-out-of-range panic
// in corner.projAxis now comes back as a typed ErrDegenerate.
func TestHull3DDegenerateCollinear(t *testing.T) {
	var pts []Point
	for i := 0; i < 8; i++ {
		f := float64(i)
		pts = append(pts, Point{f, 2 * f, -f})
	}
	_, err := Hull3DDegenerate(pts, nil)
	wantExactly(t, "collinear", err, "ErrDegenerate")

	if _, err := Hull3DDegenerate([]Point{{0, 0, 0}, {1, 0, 0}, {0, 1, 0}}, nil); !errors.Is(err, ErrDegenerate) {
		t.Errorf("3 points: %v, want ErrDegenerate", err)
	}
}

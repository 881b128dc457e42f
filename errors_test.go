package parhull

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
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
	// Normals whose half-space intersection is unbounded: the origin outside
	// their hull, and the origin on one of its facets.
	originOutside := RandomPoints(60, 3, 7)
	for _, a := range originOutside {
		a[0] += 5
	}
	originOnFacet := []Point{{1, 0, 0}, {0, 1, 0}, {-1, -1, 0}, {0, 0, 1}, {0.1, 0.1, 0.5}}
	normals := append(HalfspaceBoundingSimplex(3), RandomSpherePoints(200, 3, 5)...)
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
				if _, err := Delaunay(RandomPoints(200, 2, 4), dcap); true {
					wantExactly(t, "Delaunay capacity", err, "ErrCapacity")
				}
				if _, err := HalfspaceIntersection(normals, dcap); true {
					wantExactly(t, "HalfspaceIntersection capacity", err, "ErrCapacity")
				}
			}

			if _, err := HalfspaceIntersection(originOutside, o()); true {
				wantExactly(t, "half-spaces, origin outside the normals' hull", err, "ErrDegenerate")
			}
			if _, err := HalfspaceIntersection(originOnFacet, o()); true {
				wantExactly(t, "half-spaces, origin on a facet of the normals' hull", err, "ErrDegenerate")
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
	badEngine := &Options{Engine: Engine(99)}
	segs := []TrapezoidSegment{{Y: 0.5, XL: 0.2, XR: 0.8}}
	box := TrapezoidBox{XL: 0, XR: 1, YB: 0, YT: 1}
	for name, call := range map[string]func() error{
		"Hull2D":                      func() error { _, err := Hull2D(pts2, badEngine); return err },
		"HullD":                       func() error { _, err := HullD(pts3, badEngine); return err },
		"Hull3D":                      func() error { _, err := Hull3D(pts3, badEngine); return err },
		"Delaunay":                    func() error { _, err := Delaunay(pts2, badEngine); return err },
		"HalfspaceIntersection":       func() error { _, err := HalfspaceIntersection(pts3, badEngine); return err },
		"HalfspaceIntersectionDirect": func() error { _, err := HalfspaceIntersectionDirect(pts3, badEngine); return err },
		"UnitCircleIntersection":      func() error { _, _, err := UnitCircleIntersection(pts2, badEngine); return err },
		"TrapezoidDecomposition":      func() error { _, err := TrapezoidDecomposition(segs, box, badEngine); return err },
		"Hull3DDegenerate":            func() error { _, err := Hull3DDegenerate(pts3, badEngine); return err },
	} {
		if err := call(); !errors.Is(err, ErrBadOption) {
			t.Errorf("%s with Engine(99): %v, want ErrBadOption", name, err)
		}
	}
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

// TestErrorsNameCallerIndexUnderShuffle pins that a bad point is reported by
// its index in the caller's slice when Options.Shuffle reorders the
// insertion: a NaN coordinate and a point of the wrong dimension at caller
// index k are "point k" from HullD and Hull2D, with and without the
// pre-hull, and from Delaunay; a duplicate pair is "duplicate points i and
// j" from Delaunay.
func TestErrorsNameCallerIndexUnderShuffle(t *testing.T) {
	const k = 5
	for _, c := range []struct {
		name string
		n, d int
		run  func([]Point) error
	}{
		{"HullD", 20000, 3, func(p []Point) error { _, err := HullD(p, &Options{Shuffle: true, Seed: 3}); return err }},
		{"HullD/PreHullOff", 20000, 3, func(p []Point) error {
			_, err := HullD(p, &Options{Shuffle: true, Seed: 3, PreHull: PreHullOff})
			return err
		}},
		{"Hull2D", 20000, 2, func(p []Point) error { _, err := Hull2D(p, &Options{Shuffle: true, Seed: 3}); return err }},
		{"Hull2D/PreHullOff", 20000, 2, func(p []Point) error {
			_, err := Hull2D(p, &Options{Shuffle: true, Seed: 3, PreHull: PreHullOff})
			return err
		}},
		{"Delaunay", 2000, 2, func(p []Point) error { _, err := Delaunay(p, &Options{Shuffle: true, Seed: 3}); return err }},
	} {
		nan := make(Point, c.d)
		nan[c.d-1] = math.NaN()
		for _, bad := range []struct {
			kind, sentinel string
			p              Point
			msg            string
		}{
			{"NaN", "ErrBadCoordinate", nan, fmt.Sprintf("point %d:", k)},
			{"dimension", "ErrBadOption", make(Point, c.d+1), fmt.Sprintf("point %d has dimension", k)},
		} {
			pts := RandomPoints(c.n, c.d, 1)
			pts[k] = bad.p
			err := c.run(pts)
			label := c.name + " " + bad.kind
			wantExactly(t, label, err, bad.sentinel)
			if !strings.Contains(err.Error(), bad.msg) {
				t.Errorf("%s: %q does not name caller index %d", label, err, k)
			}
		}
	}

	// A duplicate pair is named by both caller indices, shuffled or not.
	pts := RandomPoints(2000, 2, 1)
	pts[7] = pts[3].Clone()
	for _, shuffle := range []bool{false, true} {
		_, err := Delaunay(pts, &Options{Shuffle: shuffle, Seed: 3})
		label := fmt.Sprintf("Delaunay duplicate (Shuffle %v)", shuffle)
		wantExactly(t, label, err, "ErrDegenerate")
		if !strings.Contains(err.Error(), "duplicate points 3 and 7") {
			t.Errorf("%s: %q does not name caller indices 3 and 7", label, err)
		}
	}
}

// sortedVertices is a comparison helper.
func sortedVertices(v []int) []int {
	out := append([]int(nil), v...)
	sort.Ints(out)
	return out
}

// ladderRoute is one hull-backed public route the degradation ladder
// covers: run builds its output under o and reduces it to a canonical
// string; retryCap undersizes the fixed table so that one or two doublings
// suffice.
type ladderRoute struct {
	name     string
	retryCap int
	run      func(o *Options) (string, Stats, error)
}

// ladderRoutes are Hull2D, Delaunay, and HalfspaceIntersection on inputs of
// about n points, those of the retry test when n is 100.
func ladderRoutes(n int, seed int64) []ladderRoute {
	pts2 := RandomSpherePoints(n, 2, seed)
	plane := RandomPoints(n, 2, seed)
	normals := append(HalfspaceBoundingSimplex(3), RandomSpherePoints(n, 3, seed)...)
	return []ladderRoute{
		{"Hull2D", 32, func(o *Options) (string, Stats, error) {
			res, err := Hull2D(pts2, o)
			if err != nil {
				return "", Stats{}, err
			}
			return fmt.Sprint(sortedVertices(res.Vertices)), res.Stats, nil
		}},
		{"Delaunay", 256, func(o *Options) (string, Stats, error) {
			res, err := Delaunay(plane, o)
			if err != nil {
				return "", Stats{}, err
			}
			return fmt.Sprint(triangleKeys(res.Triangles)), res.Stats, nil
		}},
		{"HalfspaceIntersection", 128, func(o *Options) (string, Stats, error) {
			res, err := HalfspaceIntersection(normals, o)
			if err != nil {
				return "", Stats{}, err
			}
			return fmt.Sprint(halfspaceKeys(res)), res.Stats, nil
		}},
	}
}

// TestDegradationLadderRetry undersizes the fixed table so that one or two
// doubled-table restarts suffice: on every hull-backed route the run must
// succeed without falling back to the sharded map, record the retries in
// Stats, and produce the same output as a clean run.
func TestDegradationLadderRetry(t *testing.T) {
	leakcheck.Check(t)
	for _, r := range ladderRoutes(100, 5) {
		clean, _, err := r.run(nil)
		if err != nil {
			t.Fatalf("%s: clean run: %v", r.name, err)
		}
		for _, m := range []MapKind{MapCAS, MapTAS} {
			got, st, err := r.run(&Options{Map: m, MapCapacity: r.retryCap})
			if err != nil {
				t.Fatalf("%s map %d: ladder did not recover: %v", r.name, m, err)
			}
			if st.CapacityRetries < 1 || st.CapacityRetries > 2 {
				t.Errorf("%s map %d: CapacityRetries = %d, want 1..2", r.name, m, st.CapacityRetries)
			}
			if st.MapFallback {
				t.Errorf("%s map %d: fell back to sharded, doubling should have sufficed", r.name, m)
			}
			if got != clean {
				t.Fatalf("%s map %d: output differs from clean run", r.name, m)
			}
		}
	}
}

// TestDegradationLadderFallback undersizes the table beyond what the bounded
// retries can absorb: on every hull-backed route the ladder must land on the
// sharded map, record both Stats fields, and still produce the clean output.
func TestDegradationLadderFallback(t *testing.T) {
	leakcheck.Check(t)
	routes := ladderRoutes(400, 6)
	for _, r := range routes {
		clean, _, err := r.run(nil)
		if err != nil {
			t.Fatalf("%s: clean run: %v", r.name, err)
		}
		for _, e := range []Engine{EngineParallel, EngineRounds} {
			got, st, err := r.run(&Options{Engine: e, Map: MapCAS, MapCapacity: 4})
			if err != nil {
				t.Fatalf("%s engine %d: ladder did not recover: %v", r.name, e, err)
			}
			if st.CapacityRetries != 2 {
				t.Errorf("%s engine %d: CapacityRetries = %d, want 2 (ladder exhausted)", r.name, e, st.CapacityRetries)
			}
			if !st.MapFallback {
				t.Errorf("%s engine %d: MapFallback = false, want sharded fallback", r.name, e)
			}
			if got != clean {
				t.Fatalf("%s engine %d: output differs from clean run", r.name, e)
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

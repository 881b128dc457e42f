package engine_test

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"parhull"
	"parhull/internal/geom"
	"parhull/internal/hull2d"
	"parhull/internal/hulld"
	"parhull/internal/pointgen"
)

// FuzzEngineEquivalence drives random point sets through all three schedules
// of both kernels — the parallel one both one-shot and on a retained Reuse —
// and asserts Theorem 5.5's guarantee:
// the schedules create the identical facet multiset and hull vertex set
// (previously pinned only on fixed seeds). Inputs the engines reject as
// degenerate are skipped — rejection must then be unanimous.
//
// With a non-zero mutate parameter the input is hostile instead — NaN or
// infinite coordinates, duplicated points, a fully collinear cloud, a
// starved fixed ridge table, a duplicate-heavy cloud, or a grid-quantized
// near-degenerate cloud — and the run goes through the public API, which
// must come back with a typed error or a valid hull, never a panic (the
// robustness acceptance bar).
func FuzzEngineEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(2), false, uint8(0))
	f.Add(int64(2), uint8(40), uint8(3), true, uint8(0))
	f.Add(int64(3), uint8(9), uint8(4), false, uint8(0))
	f.Add(int64(99), uint8(64), uint8(2), true, uint8(0))
	f.Add(int64(5), uint8(30), uint8(2), false, uint8(1))   // NaN coordinate
	f.Add(int64(6), uint8(30), uint8(3), true, uint8(2))    // +Inf coordinate
	f.Add(int64(7), uint8(30), uint8(2), false, uint8(3))   // duplicated point
	f.Add(int64(8), uint8(30), uint8(3), false, uint8(4))   // collinear cloud
	f.Add(int64(9), uint8(64), uint8(2), true, uint8(5))    // tiny fixed table
	f.Add(int64(10), uint8(48), uint8(2), false, uint8(6))  // duplicate-heavy cloud
	f.Add(int64(11), uint8(48), uint8(3), false, uint8(7))  // quantized near-degenerate cloud
	f.Add(int64(12), uint8(48), uint8(3), false, uint8(8))  // quantized cospherical cloud
	f.Add(int64(13), uint8(48), uint8(2), false, uint8(9))  // integer lattice (ties everywhere)
	f.Add(int64(14), uint8(48), uint8(3), false, uint8(10)) // exact collinear-heavy cloud
	f.Add(int64(15), uint8(48), uint8(4), false, uint8(11)) // exact coplanar-heavy cloud
	f.Fuzz(func(t *testing.T, seed int64, n, dim uint8, sphere bool, mutate uint8) {
		d := 2 + int(dim)%3 // dimensions 2..4
		np := int(n)
		if np < d+2 {
			np = d + 2
		}
		rng := pointgen.NewRNG(seed)
		var pts []geom.Point
		if sphere {
			pts = pointgen.OnSphere(rng, np, d)
		} else {
			pts = pointgen.UniformBall(rng, np, d)
		}
		if m := mutate % 12; m != 0 {
			switch m {
			case 6:
				pts = pointgen.DuplicateHeavy(pointgen.NewRNG(seed), np, d, 0.5)
			case 7:
				pts = pointgen.NearDegenerate(pointgen.NewRNG(seed), np, d, 0)
			case 8:
				pts = pointgen.Cospherical(pointgen.NewRNG(seed), np, d, 0)
			case 9:
				pts = pointgen.IntegerLattice(pointgen.NewRNG(seed), np, d, 0)
			case 10:
				pts = pointgen.CollinearHeavy(pointgen.NewRNG(seed), np, d, 0.5)
			case 11:
				pts = pointgen.CoplanarHeavy(pointgen.NewRNG(seed), np, d, 0.5)
			default:
				pts = mutatePoints(pts, m, seed)
			}
			fuzzPublic(t, pts, d, m)
			return
		}
		if d == 2 {
			fuzz2D(t, pts)
		} else {
			fuzzD(t, pts)
		}
	})
}

// mutatePoints corrupts a general-position cloud into one of the hostile
// input classes (mutate 5 leaves points intact — the table is starved
// instead).
func mutatePoints(pts []geom.Point, mutate uint8, seed int64) []geom.Point {
	i := int(uint64(seed) % uint64(len(pts)))
	switch mutate {
	case 1:
		pts[i][int((uint64(seed)>>8)%uint64(len(pts[i])))] = math.NaN()
	case 2:
		pts[i][int((uint64(seed)>>8)%uint64(len(pts[i])))] = math.Inf(1 - 2*int(seed&2))
	case 3:
		pts[i] = append(geom.Point(nil), pts[(i+1)%len(pts)]...)
	case 4:
		for j := range pts {
			f := float64(j)
			for k := range pts[j] {
				pts[j][k] = f * float64(k+1)
			}
		}
	}
	return pts
}

// fuzzPublic runs a hostile input through every public engine x map
// combination. The contract: a typed public error or a hull, never a panic
// and never an untyped error. Successful runs must agree on the vertex set.
func fuzzPublic(t *testing.T, pts []geom.Point, d int, mutate uint8) {
	hull := func(o *parhull.Options) ([]int, error) {
		if d == 2 {
			r, err := parhull.Hull2D(pts, o)
			if err != nil {
				return nil, err
			}
			return r.Vertices, nil
		}
		r, err := parhull.HullD(pts, o)
		if err != nil {
			return nil, err
		}
		return r.Vertices, nil
	}
	typed := func(err error) bool {
		return errors.Is(err, parhull.ErrDegenerate) || errors.Is(err, parhull.ErrBadCoordinate) ||
			errors.Is(err, parhull.ErrCapacity)
	}
	var want string
	for _, e := range []parhull.Engine{parhull.EngineSequential, parhull.EngineParallel, parhull.EngineRounds} {
		for _, m := range []parhull.MapKind{parhull.MapSharded, parhull.MapCAS, parhull.MapTAS} {
			o := &parhull.Options{Engine: e, Map: m}
			if mutate == 5 {
				o.MapCapacity = 4
				o.NoMapFallback = true
			}
			v, err := hull(o)
			if err != nil {
				if !typed(err) {
					t.Fatalf("engine=%v map=%v mutate=%d: untyped error %v", e, m, mutate, err)
				}
				continue
			}
			got := fmt.Sprint(v)
			// Table starvation only bites the fixed maps; sharded and
			// sequential runs still succeed, so compare only within a class.
			if mutate != 5 {
				if want == "" {
					want = got
				} else if got != want {
					t.Errorf("engine=%v map=%v mutate=%d: vertices %s, others %s", e, m, mutate, got, want)
				}
			}
		}
	}
}

// degenerate reports whether err is an input-rejection either kernel may
// legitimately raise on fuzzed points (near-collinear base, wrapped visible
// region, coplanar facet).
func degenerate(err error) bool {
	return errors.Is(err, hull2d.ErrDegenerate) || errors.Is(err, hulld.ErrDegenerate)
}

func fuzz2D(t *testing.T, pts []geom.Point) {
	seq, err := hull2d.Seq(pts)
	if degenerate(err) {
		return
	}
	if err != nil {
		t.Fatalf("Seq: %v", err)
	}
	ru := hull2d.NewReuse()
	defer ru.Close()
	results := map[string]*hull2d.Result{}
	for name, opt := range map[string]*hull2d.Options{
		"par":       nil,
		"par/reuse": {Reuse: ru},
	} {
		r, err := hull2d.Par(pts, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		results[name] = r
	}
	rr, _, err := hull2d.Rounds(pts, nil)
	if err != nil {
		t.Fatalf("Rounds: %v", err)
	}
	results["rounds"] = rr
	want := seq.EdgeSet()
	wantV := fmt.Sprint(seq.Vertices)
	for name, r := range results {
		if gotV := fmt.Sprint(r.Vertices); gotV != wantV {
			t.Errorf("%s vertices = %s, seq = %s", name, gotV, wantV)
		}
		got := r.EdgeSet()
		if len(got) != len(want) {
			t.Fatalf("%s created %d distinct edges, seq %d", name, len(got), len(want))
		}
		for k, c := range want {
			if got[k] != c {
				t.Errorf("%s edge %v multiplicity %d, seq %d", name, k, got[k], c)
			}
		}
	}
}

func fuzzD(t *testing.T, pts []geom.Point) {
	seq, err := hulld.Seq(pts)
	if degenerate(err) {
		return
	}
	if err != nil {
		t.Fatalf("Seq: %v", err)
	}
	ru := hulld.NewReuse()
	defer ru.Close()
	results := map[string]*hulld.Result{}
	for name, opt := range map[string]*hulld.Options{
		"par":       nil,
		"par/reuse": {Reuse: ru},
	} {
		r, err := hulld.Par(pts, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		results[name] = r
	}
	rr, err := hulld.Rounds(pts, nil)
	if err != nil {
		t.Fatalf("Rounds: %v", err)
	}
	results["rounds"] = rr
	want := seq.FacetSet()
	wantV := fmt.Sprint(seq.Vertices)
	for name, r := range results {
		if gotV := fmt.Sprint(r.Vertices); gotV != wantV {
			t.Errorf("%s vertices = %s, seq = %s", name, gotV, wantV)
		}
		got := r.FacetSet()
		if len(got) != len(want) {
			t.Fatalf("%s created %d distinct facets, seq %d", name, len(got), len(want))
		}
		for k, c := range want {
			if got[k] != c {
				t.Errorf("%s facet %x multiplicity %d, seq %d", name, k, got[k], c)
			}
		}
	}
}

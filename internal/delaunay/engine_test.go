package delaunay

import (
	"context"
	"errors"
	"testing"

	"parhull/internal/geom"
	"parhull/internal/leakcheck"
	"parhull/internal/pointgen"
)

// triKey is the canonical identity of a triangle: its sorted vertex triple.
func triKey(t *Triangle) [3]int32 {
	k := t.Verts
	if k[0] > k[1] {
		k[0], k[1] = k[1], k[0]
	}
	if k[1] > k[2] {
		k[1], k[2] = k[2], k[1]
	}
	if k[0] > k[1] {
		k[0], k[1] = k[1], k[0]
	}
	return k
}

func createdSet(created []*Triangle) map[[3]int32]int {
	m := make(map[[3]int32]int, len(created))
	for _, t := range created {
		m[triKey(t)]++
	}
	return m
}

func aliveSet(res *Result) map[[3]int32]bool {
	m := make(map[[3]int32]bool, len(res.Triangles))
	for _, t := range res.Triangles {
		m[triKey(t)] = true
	}
	return m
}

func sameMultiset(t *testing.T, name string, got, want map[[3]int32]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d distinct created triangles, want %d", name, len(got), len(want))
	}
	for k, c := range want {
		if got[k] != c {
			t.Fatalf("%s: triangle %v created %d times, want %d", name, k, got[k], c)
		}
	}
}

// TestEngineMatchesTriangulate checks the tentpole identity: every engine
// schedule (Seq, Par at any width, Rounds) creates exactly the seed
// Triangulate's triangle multiset and ends with the same alive set — and
// the predicate-cache ablation changes nothing.
func TestEngineMatchesTriangulate(t *testing.T) {
	for _, n := range []int{1, 2, 3, 10, 400} {
		pts := pointgen.InCube(pointgen.NewRNG(int64(7+n)), n, 2)
		ref, err := Triangulate(pts)
		if err != nil {
			t.Fatalf("n=%d Triangulate: %v", n, err)
		}
		want := createdSet(ref.Created)
		wantAlive := aliveSet(ref)
		runs := []struct {
			name string
			run  func() (*Result, error)
		}{
			{"seq", func() (*Result, error) { return Seq(pts, nil) }},
			{"seq-exact", func() (*Result, error) { return Seq(pts, &Options{NoPredCache: true}) }},
			{"par-steal", func() (*Result, error) { return Par(pts, nil) }},
			{"par-steal-w1", func() (*Result, error) { return Par(pts, &Options{Workers: 1}) }},
			{"par-exact", func() (*Result, error) { return Par(pts, &Options{NoPredCache: true}) }},
			{"rounds", func() (*Result, error) { return Rounds(pts, nil) }},
		}
		for _, r := range runs {
			res, err := r.run()
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, r.name, err)
			}
			sameMultiset(t, r.name, createdSet(res.Created), want)
			got := aliveSet(res)
			if len(got) != len(wantAlive) {
				t.Fatalf("n=%d %s: %d alive triangles, want %d", n, r.name, len(got), len(wantAlive))
			}
			for k := range wantAlive {
				if !got[k] {
					t.Fatalf("n=%d %s: alive triangle %v missing", n, r.name, k)
				}
			}
		}
	}
}

// TestEngineEmptyCircumcircle checks the engine output satisfies the
// defining Delaunay property against the exact predicate.
func TestEngineEmptyCircumcircle(t *testing.T) {
	pts := pointgen.UniformBall(pointgen.NewRNG(11), 250, 2)
	res, err := Par(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Triangles) == 0 {
		t.Fatal("no triangles")
	}
	for _, tr := range res.Triangles {
		a, b, c := pts[tr.Verts[0]], pts[tr.Verts[1]], pts[tr.Verts[2]]
		if geom.Orient2D(a, b, c) <= 0 {
			t.Fatalf("triangle %v not CCW", tr)
		}
		if len(tr.Conf) != 0 {
			t.Fatalf("alive triangle %v has conflicts", tr)
		}
		for p := range pts {
			if geom.InCircle(a, b, c, pts[p]) > 0 {
				t.Fatalf("point %d strictly inside circumcircle of %v", p, tr)
			}
		}
	}
}

// TestLiftedFilterMatchesExactInCircle is the predicate property test: on
// every created triangle of a run, the cached lifted-plane classification
// (where it certifies) must agree with the exact InCircle sign, and the
// pointwise conflict() answer must equal the exact answer everywhere.
func TestLiftedFilterMatchesExactInCircle(t *testing.T) {
	pts := pointgen.Clustered(pointgen.NewRNG(13), 300, 2, 5, 1e-3)
	e, err := newDEngine(pts, false, 0, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if !e.pred {
		t.Fatal("predicate cache unexpectedly off")
	}
	res, err := Par(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	certified, fallbacks := 0, 0
	for _, tr := range res.Created {
		probe, terr := e.makeTri(nil, tr.Verts[0], tr.Verts[1], tr.Verts[2])
		if terr != nil {
			t.Fatalf("makeTri(%v): %v", tr.Verts, terr)
		}
		if !probe.plane.Valid() {
			t.Fatalf("triangle %v has no cached plane", tr.Verts)
		}
		for v := int32(0); v < int32(len(pts)); v++ {
			exact := e.exactConflict(v, probe)
			s := probe.plane.Eval(e.liftRow(v))
			switch {
			case s > probe.plane.Eps:
				if !exact {
					t.Fatalf("triangle %v point %d: filter certifies conflict, exact says no", tr.Verts, v)
				}
				certified++
			case s < -probe.plane.Eps:
				if exact {
					t.Fatalf("triangle %v point %d: filter certifies no conflict, exact says yes", tr.Verts, v)
				}
				certified++
			default:
				fallbacks++
			}
			if e.conflict(v, probe) != exact {
				t.Fatalf("triangle %v point %d: conflict() != exact", tr.Verts, v)
			}
		}
	}
	if certified == 0 {
		t.Fatal("the static filter certified nothing — the per-facet threshold is broken")
	}
	if fallbacks > certified/10 {
		t.Fatalf("filter fell back %d of %d tests — threshold far too pessimistic", fallbacks, certified+fallbacks)
	}
}

// TestEngineDegenerate checks the typed-error contract of the engine paths.
func TestEngineDegenerate(t *testing.T) {
	dup := []geom.Point{{0, 0}, {1, 0}, {0, 0}}
	for _, run := range []func() (*Result, error){
		func() (*Result, error) { return Seq(dup, nil) },
		func() (*Result, error) { return Par(dup, nil) },
		func() (*Result, error) { return Rounds(dup, nil) },
	} {
		if _, err := run(); !errors.Is(err, ErrDegenerate) {
			t.Fatalf("duplicate points: err = %v, want ErrDegenerate", err)
		}
	}
	if _, err := Par(nil, nil); !errors.Is(err, ErrDegenerate) {
		t.Fatalf("empty input: err = %v, want ErrDegenerate", err)
	}
}

// TestEngineCancellation cancels mid-flight and up front; all pools must
// quiesce (leakcheck) and the typed context error must surface.
func TestEngineCancellation(t *testing.T) {
	leakcheck.Check(t)
	pts := pointgen.UniformBall(pointgen.NewRNG(17), 4000, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Par(pts, &Options{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled Par: err = %v, want context.Canceled", err)
	}
	if _, err := Rounds(pts, &Options{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled Rounds: err = %v, want context.Canceled", err)
	}
	if _, err := Seq(pts, &Options{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled Seq: err = %v, want context.Canceled", err)
	}
}

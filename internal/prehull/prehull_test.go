package prehull

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"parhull/internal/faultinject"
	"parhull/internal/geom"
	"parhull/internal/hull2d"
	"parhull/internal/hulld"
	"parhull/internal/leakcheck"
	"parhull/internal/pointgen"
	"parhull/internal/sched"
)

// shuffledBall builds the canonical prehull-friendly workload: a uniform
// ball (interior-heavy: hull size O(n^((d-1)/(d+1)))) in random insertion
// order.
func shuffledBall(seed int64, n, d int) []geom.Point {
	rng := pointgen.NewRNG(seed)
	return pointgen.Shuffled(rng, pointgen.UniformBall(rng, n, d))
}

// remap translates a reduced-set index to an original index (identity when
// keep is nil).
func remap(keep []int32, v int32) int32 {
	if keep == nil {
		return v
	}
	return keep[v]
}

// aliveEdges2D returns the alive-edge multiset of a 2D result with indices
// translated back to the original cloud through keep.
func aliveEdges2D(res *hull2d.Result, keep []int32) map[[2]int32]int {
	m := make(map[[2]int32]int, len(res.Facets))
	for _, f := range res.Facets {
		m[[2]int32{remap(keep, f.A), remap(keep, f.B)}]++
	}
	return m
}

// aliveFacetsD returns the alive-facet multiset of a d-dimensional result
// with indices translated back to the original cloud through keep.
func aliveFacetsD(res *hulld.Result, keep []int32) map[string]int {
	m := make(map[string]int, len(res.Facets))
	for _, f := range res.Facets {
		verts := make([]int32, len(f.Verts))
		for i, v := range f.Verts {
			verts[i] = remap(keep, v)
		}
		sort.Slice(verts, func(i, j int) bool { return verts[i] < verts[j] })
		m[fmt.Sprint(verts)]++
	}
	return m
}

func sameMultiset[K comparable](t *testing.T, label string, a, b map[K]int) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d distinct facets vs %d", label, len(a), len(b))
	}
	for k, c := range a {
		if b[k] != c {
			t.Fatalf("%s: facet %v multiplicity %d vs %d", label, k, c, b[k])
		}
	}
}

// checkKeep asserts the structural invariants of a survivor set: strictly
// ascending (hence duplicate-free), in range, and a superset of the given
// true hull vertices.
func checkKeep(t *testing.T, keep []int32, n int, hullVerts []int32) {
	t.Helper()
	for i, k := range keep {
		if k < 0 || int(k) >= n {
			t.Fatalf("keep[%d] = %d out of range [0,%d)", i, k, n)
		}
		if i > 0 && keep[i-1] >= k {
			t.Fatalf("keep not strictly ascending at %d: %d >= %d", i, keep[i-1], k)
		}
	}
	in := make(map[int32]bool, len(keep))
	for _, k := range keep {
		in[k] = true
	}
	for _, v := range hullVerts {
		if !in[v] {
			t.Fatalf("hull vertex %d dropped by the reduction", v)
		}
	}
}

func TestBlockCountRules(t *testing.T) {
	// Tiny inputs fall back to a single block (serial path).
	if b := BlockCount(150, Config{}); b != 1 {
		t.Fatalf("n=150: blocks = %d, want 1", b)
	}
	// The explicit override wins but still respects MinBlock.
	if b := BlockCount(1000, Config{Blocks: 4}); b != 4 {
		t.Fatalf("override: blocks = %d, want 4", b)
	}
	if b := BlockCount(1000, Config{Blocks: 100}); b != 10 {
		t.Fatalf("override clamp: blocks = %d, want 10 (MinBlock=100)", b)
	}
	// The auto rule never lets blocks exceed ~blockTarget points.
	n := 1 << 20
	b := BlockCount(n, Config{Workers: 1})
	if per := n / b; per > blockTarget {
		t.Fatalf("auto: %d blocks of ~%d points each, want <= %d", b, per, blockTarget)
	}
	// More workers never means fewer blocks.
	if b16 := BlockCount(n, Config{Workers: 16}); b16 < b {
		t.Fatalf("blocks shrank with workers: %d < %d", b16, b)
	}
}

func TestReduceSmallInputSerialFallback(t *testing.T) {
	pts := shuffledBall(1, 150, 2)
	red, err := Reduce(pts, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if red.Keep != nil || red.Blocks != 1 {
		t.Fatalf("small input: Keep=%v Blocks=%d, want nil/1", red.Keep, red.Blocks)
	}
}

// TestReduceExactHull2D checks the tentpole invariant in 2D: the reduction
// keeps every true hull vertex and the hull of the reduced set is, facet for
// facet, the hull of the full set — with and without Z-order partitioning.
func TestReduceExactHull2D(t *testing.T) {
	pts := shuffledBall(2, 4000, 2)
	direct, err := hull2d.Seq(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, z := range []bool{false, true} {
		t.Run(fmt.Sprintf("zorder=%v", z), func(t *testing.T) {
			red, err := Reduce(pts, Config{ZOrder: z, Blocks: 16})
			if err != nil {
				t.Fatal(err)
			}
			checkKeep(t, red.Keep, len(pts), direct.Vertices)
			if len(red.Keep) >= len(pts)/2 {
				t.Fatalf("ball input barely reduced: kept %d of %d", len(red.Keep), len(pts))
			}
			reduced, err := hull2d.Seq(Gather(pts, red.Keep), nil)
			if err != nil {
				t.Fatal(err)
			}
			sameMultiset(t, "alive edges", aliveEdges2D(reduced, red.Keep), aliveEdges2D(direct, nil))
		})
	}
}

// TestReduceExactHullD is the d-dimensional version, over the engines' main
// 3D workload.
func TestReduceExactHullD(t *testing.T) {
	pts := shuffledBall(3, 3000, 3)
	direct, err := hulld.Seq(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, z := range []bool{false, true} {
		t.Run(fmt.Sprintf("zorder=%v", z), func(t *testing.T) {
			red, err := Reduce(pts, Config{ZOrder: z, Blocks: 12})
			if err != nil {
				t.Fatal(err)
			}
			checkKeep(t, red.Keep, len(pts), direct.Vertices)
			if len(red.Keep) >= len(pts) {
				t.Fatalf("ball input not reduced: kept %d of %d", len(red.Keep), len(pts))
			}
			reduced, err := hulld.Seq(Gather(pts, red.Keep), nil)
			if err != nil {
				t.Fatal(err)
			}
			sameMultiset(t, "alive facets", aliveFacetsD(reduced, red.Keep), aliveFacetsD(direct, nil))
		})
	}
}

// TestReduceFinalEngineEquivalence feeds one reduction to every final-stage
// schedule — sequential, work-stealing, round-synchronous — and checks all
// three reproduce the direct run's alive facets (the cross-engine
// equivalence property; Theorem 5.5 for the parallel pair).
func TestReduceFinalEngineEquivalence(t *testing.T) {
	pts := shuffledBall(4, 2500, 3)
	direct, err := hulld.Seq(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	red, err := Reduce(pts, Config{ZOrder: true, Blocks: 10})
	if err != nil {
		t.Fatal(err)
	}
	sub := Gather(pts, red.Keep)
	want := aliveFacetsD(direct, nil)

	seq, err := hulld.Seq(sub, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameMultiset(t, "seq", aliveFacetsD(seq, red.Keep), want)
	par, err := hulld.Par(sub, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameMultiset(t, "par", aliveFacetsD(par, red.Keep), want)
	rounds, err := hulld.Rounds(sub, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameMultiset(t, "rounds", aliveFacetsD(rounds, red.Keep), want)
}

// TestReduceSkewedInputs runs the reduction over the adversarial generators
// (tight clusters, anisotropic pancake): blocks may degenerate, the result
// must still be exact.
func TestReduceSkewedInputs(t *testing.T) {
	rng := pointgen.NewRNG(5)
	clouds := map[string][]geom.Point{
		"clustered":   pointgen.Shuffled(rng, pointgen.Clustered(rng, 3000, 3, 12, 0.01)),
		"anisotropic": pointgen.Shuffled(rng, pointgen.Anisotropic(rng, 3000, 3, 0.02)),
	}
	for name, pts := range clouds {
		for _, z := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/zorder=%v", name, z), func(t *testing.T) {
				direct, err := hulld.Seq(pts, nil)
				if err != nil {
					t.Skipf("direct hull degenerate for %s: %v", name, err)
				}
				red, err := Reduce(pts, Config{ZOrder: z})
				if err != nil {
					t.Fatal(err)
				}
				checkKeep(t, red.Keep, len(pts), direct.Vertices)
				reduced, err := hulld.Seq(Gather(pts, red.Keep), nil)
				if err != nil {
					t.Fatal(err)
				}
				sameMultiset(t, name, aliveFacetsD(reduced, red.Keep), aliveFacetsD(direct, nil))
			})
		}
	}
}

// TestReduceDegenerateBlocksKeptWhole feeds a fully collinear cloud: every
// block sub-hull must report ErrDegenerate and be kept whole, so the
// reduction returns all n points and no error — the final hull then fails
// with exactly the error a direct run would produce.
func TestReduceDegenerateBlocksKeptWhole(t *testing.T) {
	pts := pointgen.Collinear2D(geom.Point{0, 0}, geom.Point{1, 1}, 1200)
	red, err := Reduce(pts, Config{Blocks: 6})
	if err != nil {
		t.Fatal(err)
	}
	if red.DegenerateBlocks != red.Blocks || red.Blocks != 6 {
		t.Fatalf("degenerate blocks = %d of %d, want all 6", red.DegenerateBlocks, red.Blocks)
	}
	if len(red.Keep) != len(pts) {
		t.Fatalf("collinear cloud reduced to %d of %d points", len(red.Keep), len(pts))
	}
	for i, k := range red.Keep {
		if int(k) != i {
			t.Fatalf("keep[%d] = %d, want identity", i, k)
		}
	}
	if _, err := hull2d.Seq(Gather(pts, red.Keep), nil); !errors.Is(err, hull2d.ErrDegenerate) {
		t.Fatalf("final hull err = %v, want ErrDegenerate", err)
	}
}

// TestReduceCancelBeforeStart checks the upfront path: an already-canceled
// ctx fails fast without spawning the pool.
func TestReduceCancelBeforeStart(t *testing.T) {
	leakcheck.Check(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pts := shuffledBall(6, 2000, 2)
	if _, err := Reduce(pts, Config{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestReduceCancelMidRun cancels while block sub-hulls are in flight:
// injected delays at the sequential insertion sites hold the blocks long
// enough that the cancel lands mid-reduction; ctx.Err() must surface typed,
// with the pool quiesced and no goroutine leaked.
func TestReduceCancelMidRun(t *testing.T) {
	leakcheck.Check(t)
	pts := shuffledBall(7, 6000, 2)
	ctx, cancel := context.WithCancel(context.Background())
	inj := faultinject.New(1).DelayEvery(faultinject.SiteSeqInsert, 1, time.Millisecond)
	done := make(chan error, 1)
	go func() {
		_, err := Reduce(pts, Config{Blocks: 30, Ctx: ctx, Inject: inj})
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancellation did not propagate out of the block loop")
	}
}

// TestReducePanicContainment arms a deterministic panic inside a block
// sub-hull: it must surface as the executor's typed *sched.PanicError
// carrying the injected value — never a crash — with no goroutine leaked.
func TestReducePanicContainment(t *testing.T) {
	leakcheck.Check(t)
	pts := shuffledBall(8, 3000, 3)
	for _, visit := range []int64{1, 50, 400} {
		inj := faultinject.New(1).PanicAt(faultinject.SiteSeqInsert, visit)
		_, err := Reduce(pts, Config{Blocks: 8, Inject: inj})
		if err == nil {
			t.Fatalf("visit=%d: injected panic did not surface", visit)
		}
		var pe *sched.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("visit=%d: error is %T, want *sched.PanicError: %v", visit, err, err)
		}
		fp, ok := pe.Value.(faultinject.Panic)
		if !ok || fp.Site != faultinject.SiteSeqInsert || fp.Visit != visit {
			t.Fatalf("visit=%d: contained value = %#v", visit, pe.Value)
		}
		if got := inj.Fired(faultinject.SiteSeqInsert); got != 1 {
			t.Fatalf("visit=%d: fired %d panics, want exactly 1", visit, got)
		}
	}
}

// FuzzPreHullEquivalence fuzzes the whole pre-hull contract in 2D: for an
// arbitrary seeded cloud, block count, and partitioning mode, hull(reduce(P))
// must equal hull(P) alive edge for alive edge.
func FuzzPreHullEquivalence(f *testing.F) {
	f.Add(int64(1), uint16(500), uint8(0), false)
	f.Add(int64(2), uint16(1500), uint8(7), true)
	f.Add(int64(3), uint16(233), uint8(2), true)
	f.Add(int64(4), uint16(4000), uint8(40), false)
	f.Fuzz(func(t *testing.T, seed int64, rawN uint16, rawBlocks uint8, z bool) {
		n := 100 + int(rawN)%4000
		pts := shuffledBall(seed, n, 2)
		direct, err := hull2d.Seq(pts, nil)
		if err != nil {
			t.Skip("degenerate draw")
		}
		red, err := Reduce(pts, Config{Blocks: int(rawBlocks), ZOrder: z})
		if err != nil {
			t.Fatal(err)
		}
		if red.Keep == nil {
			return // serial fallback: nothing to compare
		}
		checkKeep(t, red.Keep, n, direct.Vertices)
		reduced, err := hull2d.Seq(Gather(pts, red.Keep), nil)
		if err != nil {
			t.Fatalf("reduced hull failed where direct succeeded: %v", err)
		}
		sameMultiset(t, "fuzz", aliveEdges2D(reduced, red.Keep), aliveEdges2D(direct, nil))
	})
}

// TestCullInteriorExact exercises the stage-1 interior cull (input above
// cullMinN): a large ball must cull a substantial fraction before blocking,
// keep every true hull vertex, and reproduce the direct alive facets — in
// both dimensions and with the cull ablated off.
func TestCullInteriorExact(t *testing.T) {
	leakcheck.Check(t)
	for _, tc := range []struct{ d, n int }{{2, 20000}, {3, 24000}} {
		pts := shuffledBall(int64(10+tc.d), tc.n, tc.d)
		for _, noCull := range []bool{false, true} {
			t.Run(fmt.Sprintf("d=%d/nocull=%v", tc.d, noCull), func(t *testing.T) {
				red, err := Reduce(pts, Config{ZOrder: true, NoCull: noCull})
				if err != nil {
					t.Fatal(err)
				}
				if noCull {
					if red.Culled != 0 {
						t.Fatalf("NoCull: Culled = %d, want 0", red.Culled)
					}
				} else if red.Culled < tc.n/2 {
					t.Fatalf("cull dropped only %d of %d ball points", red.Culled, tc.n)
				}
				if tc.d == 2 {
					direct, err := hull2d.Seq(pts, nil)
					if err != nil {
						t.Fatal(err)
					}
					checkKeep(t, red.Keep, tc.n, direct.Vertices)
					reduced, err := hull2d.Seq(Gather(pts, red.Keep), nil)
					if err != nil {
						t.Fatal(err)
					}
					sameMultiset(t, "alive edges", aliveEdges2D(reduced, red.Keep), aliveEdges2D(direct, nil))
					return
				}
				direct, err := hulld.Seq(pts, nil)
				if err != nil {
					t.Fatal(err)
				}
				checkKeep(t, red.Keep, tc.n, direct.Vertices)
				reduced, err := hulld.Seq(Gather(pts, red.Keep), nil)
				if err != nil {
					t.Fatal(err)
				}
				sameMultiset(t, "alive facets", aliveFacetsD(reduced, red.Keep), aliveFacetsD(direct, nil))
			})
		}
	}
}

// TestCullSkipsDenseSample feeds a boundary-only cloud above the cull
// threshold: the sample hull keeps nearly the whole sample, so the density
// gate must disable the cull (Culled == 0) and the block stage alone must
// still keep every vertex.
func TestCullSkipsDenseSample(t *testing.T) {
	rng := pointgen.NewRNG(17)
	pts := pointgen.Shuffled(rng, pointgen.OnSphere(rng, cullMinN+4000, 3))
	direct, err := hulld.Seq(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	red, err := Reduce(pts, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if red.Culled != 0 {
		t.Fatalf("on-sphere cloud culled %d points; the density gate should have disabled the cull", red.Culled)
	}
	if red.Keep != nil {
		checkKeep(t, red.Keep, len(pts), direct.Vertices)
	}
}

// TestCullPanicContainment arms an injected panic that fires inside the
// stage-1 sample sub-hull (visit 1 is hit while hulling the sample prefix):
// Reduce must surface it as a contained *sched.PanicError, same as a block
// panic.
func TestCullPanicContainment(t *testing.T) {
	leakcheck.Check(t)
	pts := shuffledBall(18, cullMinN, 3)
	inj := faultinject.New(1)
	inj.PanicAt(faultinject.SiteSeqInsert, 1)
	_, err := Reduce(pts, Config{Inject: inj})
	var pe *sched.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *sched.PanicError from the sample sub-hull", err)
	}
	fp, ok := pe.Value.(faultinject.Panic)
	if !ok || fp.Site != faultinject.SiteSeqInsert {
		t.Fatalf("contained value = %#v", pe.Value)
	}
}

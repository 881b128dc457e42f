package prehull

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"parhull/internal/faultinject"
	"parhull/internal/geom"
	"parhull/internal/leakcheck"
	"parhull/internal/pointgen"
	"parhull/internal/sched"
)

// sameReduction fails unless got and want agree on every Reduction field.
func sameReduction(t *testing.T, label string, got, want *Reduction) {
	t.Helper()
	if (got.Keep == nil) != (want.Keep == nil) || !slices.Equal(got.Keep, want.Keep) ||
		got.Culled != want.Culled || got.Blocks != want.Blocks || got.DegenerateBlocks != want.DegenerateBlocks {
		t.Fatalf("%s: reduction (keep %d, culled %d, blocks %d, degenerate %d), want (keep %d, culled %d, blocks %d, degenerate %d)",
			label, len(got.Keep), got.Culled, got.Blocks, got.DegenerateBlocks,
			len(want.Keep), want.Culled, want.Blocks, want.DegenerateBlocks)
	}
}

// TestReduceScratchReuse checks that retained state changes nothing: one
// Scratch reused across calls that vary n, d, worker count, and
// partitioning — and across a canceled call and a call that panicked inside
// a block — yields exactly the Reduction a nil Scratch does.
func TestReduceScratchReuse(t *testing.T) {
	leakcheck.Check(t)
	var s Scratch
	defer s.Close()
	i := 0
	sizes := map[int][]int{2: {3000, cullMinN + 1000}, 3: {3000, cullMinN + 1000}, 4: {3000}}
	for _, d := range []int{2, 3, 4} {
		for _, n := range sizes[d] {
			pts := shuffledBall(int64(100*d+n), n, d)
			for _, workers := range []int{1, 3} {
				i++
				z := i%2 == 0
				label := fmt.Sprintf("d=%d/n=%d/workers=%d/zorder=%v", d, n, workers, z)
				want, err := Reduce(pts, Config{Workers: workers, ZOrder: z})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}

				// Interrupt the Scratch first: a canceled call, then a call
				// whose block sub-hull panics mid-way.
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				if _, err := Reduce(pts, Config{Workers: workers, ZOrder: z, Ctx: ctx, Scratch: &s}); !errors.Is(err, context.Canceled) {
					t.Fatalf("%s: canceled call err = %v", label, err)
				}
				inj := faultinject.New(1).PanicAt(faultinject.SitePreHullBlock, 2)
				var pe *sched.PanicError
				if _, err := Reduce(pts, Config{Workers: workers, ZOrder: z, Inject: inj, Scratch: &s}); !errors.As(err, &pe) {
					t.Fatalf("%s: panicking call err = %v, want *sched.PanicError", label, err)
				}

				got, err := Reduce(pts, Config{Workers: workers, ZOrder: z, Scratch: &s})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				sameReduction(t, label, got, want)
			}
		}
	}
}

// TestCullScan3MatchesGeneric checks that the inlined d = 3 cull query and
// the generic one (the same cell, then Plane.Eval over its planes) produce
// the same keep mask, point for point.
func TestCullScan3MatchesGeneric(t *testing.T) {
	n := cullMinN + 4000
	rng := pointgen.NewRNG(21)
	clouds := map[string][]geom.Point{
		"ball":        pointgen.Shuffled(rng, pointgen.UniformBall(rng, n, 3)),
		"clustered":   pointgen.Shuffled(rng, pointgen.Clustered(rng, n, 3, 12, 0.05)),
		"anisotropic": pointgen.Shuffled(rng, pointgen.Anisotropic(rng, n, 3, 0.02)),
	}
	for name, pts := range clouds {
		t.Run(name, func(t *testing.T) {
			var c cullState
			ok, err := c.build(pts[:cullSampleFor(n)], 3, Config{}, &seqWorker{})
			if err != nil || !ok {
				t.Fatalf("cull skipped (ok=%v, err=%v)", ok, err)
			}
			if len(c.rows) != len(c.planes) {
				t.Fatalf("%d flat rows for %d planes", len(c.rows), len(c.planes))
			}
			generic, inlined := make([]bool, n), make([]bool, n)
			kg := c.scanCells(pts, 0, n, generic)
			k3 := c.scan3(pts, 0, n, inlined)
			if kg != k3 || !slices.Equal(generic, inlined) {
				t.Fatalf("keep masks differ: generic kept %d, d=3 loop kept %d", kg, k3)
			}
			if kg == n || kg == 0 {
				t.Fatalf("degenerate comparison: kept %d of %d", kg, n)
			}
		})
	}
}

// TestReduceWarmAllocs pins the allocations of a warm Reduce on a retained
// Scratch, with one and two workers: the executor and its deques, the cull
// planes and cell index, the Z-order buffers, every list and the Reduction
// itself are retained, so a repeat call allocates nothing. With two
// workers the schedule differs from call to call and now and then
// allocates a short-lived object, so the count is an average over 20
// calls. Under the race detector sync.Pool drops some of the sub-hulls'
// pooled scratch, so the count is logged, not pinned.
func TestReduceWarmAllocs(t *testing.T) {
	leakcheck.Check(t)
	pts := shuffledBall(43, cullMinN+8000, 3)
	for _, workers := range []int{1, 2} {
		var s Scratch
		cfg := Config{Workers: workers, ZOrder: true, Scratch: &s}
		var red *Reduction
		reduce := func() {
			var err error
			if red, err = Reduce(pts, cfg); err != nil {
				t.Fatal(err)
			}
		}
		for range 3 {
			reduce()
		}
		allocs := testing.AllocsPerRun(20, reduce)
		s.Close()
		if red.Culled == 0 || red.Blocks < 2 {
			t.Fatalf("workers=%d: culled %d, %d blocks: both stages must run", workers, red.Culled, red.Blocks)
		}
		t.Logf("workers=%d: %.0f allocations per warm Reduce", workers, allocs)
		if allocs != 0 && !raceEnabled {
			t.Errorf("workers=%d: a warm Reduce made %.0f allocations, want 0", workers, allocs)
		}
	}
}

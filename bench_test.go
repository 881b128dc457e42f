// Benchmarks mirroring the experiments of EXPERIMENTS.md, one per
// theorem/figure of the paper. Custom metrics report the quantities the
// theorems bound: depth/H_n (Theorem 1.1), rounds (Theorem 5.3), the
// par/seq visibility-test ratio (Theorem 5.4), and the Theorem 3.1 conflict
// ratio. Run with: go test -bench=. -benchmem
package parhull_test

import (
	"fmt"
	"testing"

	"parhull"
	"parhull/internal/baseline"
	"parhull/internal/hull2d"
	"parhull/internal/hulld"
	"parhull/internal/pointgen"
	"parhull/internal/stats"
)

// E1 — dependence depth of the parallel construction (Theorem 1.1).
func BenchmarkDepth2D(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			pts := pointgen.OnCircle(pointgen.NewRNG(int64(n)), n)
			var depth int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := hull2d.Par(pts, &hull2d.Options{NoCounters: true})
				if err != nil {
					b.Fatal(err)
				}
				depth = res.Stats.MaxDepth
			}
			b.ReportMetric(float64(depth), "depth")
			b.ReportMetric(float64(depth)/stats.Harmonic(n), "depth/H_n")
		})
	}
}

func BenchmarkDepth3D(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			pts := pointgen.OnSphere(pointgen.NewRNG(int64(n)), n, 3)
			var depth int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := hulld.Par(pts, &hulld.Options{NoCounters: true})
				if err != nil {
					b.Fatal(err)
				}
				depth = res.Stats.MaxDepth
			}
			b.ReportMetric(float64(depth), "depth")
			b.ReportMetric(float64(depth)/stats.Harmonic(n), "depth/H_n")
		})
	}
}

// E3 — recursion depth (rounds) of the round-synchronous schedule
// (Theorem 5.3).
func BenchmarkRounds2D(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			pts := pointgen.OnCircle(pointgen.NewRNG(int64(n)), n)
			var rounds int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, _, err := hull2d.Rounds(pts, &hull2d.Options{NoCounters: true})
				if err != nil {
					b.Fatal(err)
				}
				rounds = res.Stats.Rounds
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// E4 — work ratio: parallel visibility tests / sequential visibility tests
// (Theorem 5.4 says exactly 1.0).
func BenchmarkWorkRatio2D(b *testing.B) {
	n := 20000
	pts := pointgen.OnCircle(pointgen.NewRNG(4), n)
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := hull2d.Seq(pts)
		if err != nil {
			b.Fatal(err)
		}
		p, err := hull2d.Par(pts, nil)
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(p.Stats.VisibilityTests) / float64(s.Stats.VisibilityTests)
	}
	b.ReportMetric(ratio, "par/seq-tests")
}

// E5 — total conflict size against the Theorem 3.1 bound (ratio < 1).
func BenchmarkConflictBound2D(b *testing.B) {
	n := 20000
	pts := pointgen.OnCircle(pointgen.NewRNG(5), n)
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := hull2d.Seq(pts)
		if err != nil {
			b.Fatal(err)
		}
		var total int64
		for _, f := range res.Created {
			total += int64(len(f.Conf))
		}
		sizes := make([]float64, len(res.HullSizes))
		for j, h := range res.HullSizes {
			sizes[j] = float64(h)
		}
		ratio = float64(total) / stats.Theorem31Bound(2, sizes)
	}
	b.ReportMetric(ratio, "measured/bound")
}

// E6 — the Figure 1 trace.
func BenchmarkFigure1Trace(b *testing.B) {
	pts, base := parhull.Figure1Points()
	for i := 0; i < b.N; i++ {
		if _, _, err := parhull.Hull2DTrace(pts, base); err != nil {
			b.Fatal(err)
		}
	}
}

// E11 — end-to-end engine comparison, plus the non-incremental baseline.
func BenchmarkHull2D(b *testing.B) {
	for _, cfg := range []struct {
		name string
		n    int
	}{{"disk", 100000}, {"circle", 100000}} {
		pts := workloadFor(cfg.name, cfg.n)
		b.Run(cfg.name+"/seq", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := hull2d.SeqFrom(pts, 3, false); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(cfg.name+"/par", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := hull2d.Par(pts, &hull2d.Options{NoCounters: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(cfg.name+"/rounds", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := hull2d.Rounds(pts, &hull2d.Options{NoCounters: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(cfg.name+"/quickhull-baseline", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				baseline.QuickHull2D(pts)
			}
		})
	}
}

func workloadFor(name string, n int) []parhull.Point {
	rng := pointgen.NewRNG(int64(n))
	if name == "disk" {
		return pointgen.UniformBall(rng, n, 2)
	}
	return pointgen.OnCircle(rng, n)
}

func BenchmarkHull3D(b *testing.B) {
	pts := pointgen.OnSphere(pointgen.NewRNG(6), 20000, 3)
	b.Run("seq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := hulld.SeqCounted(pts, false); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("par", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := hulld.Par(pts, &hulld.Options{NoCounters: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The uniform-in-ball workload: mostly interior points, so per-facet
	// overheads (arena carves, fork handoffs) dominate.
	ball := pointgen.Shuffled(pointgen.NewRNG(41), pointgen.UniformBall(pointgen.NewRNG(41), 100000, 3))
	b.Run("ball100k/steal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := hulld.Par(ball, &hulld.Options{NoCounters: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E9 — half-space intersection via duality.
func BenchmarkHalfspaceDual(b *testing.B) {
	normals := append(parhull.HalfspaceBoundingSimplex(3),
		parhull.RandomSpherePoints(10000, 3, 7)...)
	var depth int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := parhull.HalfspaceIntersection(normals, &parhull.Options{NoCounters: true})
		if err != nil {
			b.Fatal(err)
		}
		depth = res.Stats.MaxDepth
	}
	b.ReportMetric(float64(depth), "depth")
}

// E9 — unit-circle intersection boundary.
func BenchmarkCircleIntersection(b *testing.B) {
	centers := clusterCenters(64)
	for i := 0; i < b.N; i++ {
		if _, _, err := parhull.UnitCircleIntersection(centers, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func clusterCenters(n int) []parhull.Point {
	rng := pointgen.NewRNG(8)
	out := make([]parhull.Point, n)
	for i := range out {
		out[i] = parhull.Point{0.4 * (rng.Float64() - 0.5), 0.4 * (rng.Float64() - 0.5)}
	}
	return out
}

// E10 lives in internal/conmap (BenchmarkRidgeMap*); this end-to-end variant
// swaps the map inside the full 2D engine.
func BenchmarkHull2DMapKinds(b *testing.B) {
	pts := pointgen.OnCircle(pointgen.NewRNG(9), 50000)
	for _, mk := range []struct {
		name string
		kind parhull.MapKind
	}{{"sharded", parhull.MapSharded}, {"cas", parhull.MapCAS}, {"tas", parhull.MapTAS}} {
		b.Run(mk.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := parhull.Hull2D(pts, &parhull.Options{Map: mk.kind, NoCounters: true})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package main

import (
	"fmt"
	"math"

	"parhull/internal/geom"
	"parhull/internal/hull2d"
	"parhull/internal/hulld"
	"parhull/internal/pointgen"
	"parhull/internal/stats"
)

// workload returns n points of dimension d from the named distribution.
func workload(dist string, seed int64, n, d int) []geom.Point {
	rng := pointgen.NewRNG(seed)
	switch dist {
	case "ball":
		return pointgen.UniformBall(rng, n, d)
	case "sphere":
		return pointgen.OnSphere(rng, n, d)
	default:
		return pointgen.InCube(rng, n, d)
	}
}

// run2D/run3D produce a parallel-engine result on a fresh shuffled workload.
func runPar(dist string, seed int64, n, d int) (int, int, error) {
	pts := workload(dist, seed, n, d)
	if d == 2 {
		res, err := hull2d.Par(pts, nil)
		if err != nil {
			return 0, 0, err
		}
		return res.Stats.MaxDepth, res.Stats.HullSize, nil
	}
	res, err := hulld.Par(pts, nil)
	if err != nil {
		return 0, 0, err
	}
	return res.Stats.MaxDepth, res.Stats.HullSize, nil
}

// expDepth — E1: dependence depth vs n, against sigma*H_n.
func expDepth() {
	w := table()
	fmt.Fprintln(w, "d\tdist\tn\tH_n\tdepth(mean)\tdepth(max)\tdepth/H_n\tsigma_min*H_n")
	type series struct{ lnN, depth []float64 }
	fits := map[string]*series{}
	for _, cfg := range []struct {
		d    int
		dist string
		ns   []int
	}{
		{2, "ball", []int{1000, 10000, 100000, 1000000}},
		{2, "sphere", []int{1000, 10000, 100000, 1000000}},
		{3, "ball", []int{1000, 10000, 100000}},
		{3, "sphere", []int{1000, 10000, 100000}},
	} {
		for _, n0 := range cfg.ns {
			n := sz(n0)
			var ds []float64
			for s := 0; s < *seeds; s++ {
				depth, _, err := runPar(cfg.dist, int64(1000*s+n0), n, cfg.d)
				if err != nil {
					fmt.Fprintf(w, "error: %v\n", err)
					continue
				}
				ds = append(ds, float64(depth))
			}
			sum := stats.Summarize(ds)
			hn := stats.Harmonic(n)
			sigma := stats.Theorem42MinSigma(cfg.d, 2)
			fmt.Fprintf(w, "%d\t%s\t%d\t%.2f\t%.1f\t%.0f\t%.2f\t%.0f\n",
				cfg.d, cfg.dist, n, hn, sum.Mean, sum.Max, sum.Mean/hn, sigma*hn)
			key := fmt.Sprintf("d=%d %s", cfg.d, cfg.dist)
			if fits[key] == nil {
				fits[key] = &series{}
			}
			fits[key].lnN = append(fits[key].lnN, math.Log(float64(n)))
			fits[key].depth = append(fits[key].depth, sum.Mean)
		}
	}
	w.Flush()
	fmt.Println("least-squares fit depth = a + b*ln(n):")
	fw := table()
	fmt.Fprintln(fw, "series\ta\tb\tr^2")
	for _, key := range []string{"d=2 ball", "d=2 sphere", "d=3 ball", "d=3 sphere"} {
		if s := fits[key]; s != nil {
			a, b, r2 := stats.FitLine(s.lnN, s.depth)
			fmt.Fprintf(fw, "%s\t%.2f\t%.2f\t%.4f\n", key, a, b, r2)
		}
	}
	fw.Flush()
	fmt.Println("paper: depth = O(log n) whp (Theorem 1.1); b stable and r^2 ~ 1 confirm the shape.")
}

// expTail — E2: distribution of D(G(S)) over many random orders at fixed n.
func expTail() {
	n := sz(2000)
	trials := sz(300)
	var h stats.Histogram
	for s := 0; s < trials; s++ {
		depth, _, err := runPar("sphere", int64(7000+s), n, 2)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		h.Observe(depth)
	}
	hn := stats.Harmonic(n)
	fmt.Printf("n=%d, %d random orders, H_n=%.2f\n", n, trials, hn)
	w := table()
	fmt.Fprintln(w, "depth D\tcount\tempirical Pr[depth >= D]\tsigma = D/H_n")
	lo, hi := h.Max(), 0
	for d := 0; d <= h.Max(); d++ {
		if h.Count(d) > 0 && d < lo {
			lo = d
		}
		if h.Count(d) > 0 && d > hi {
			hi = d
		}
	}
	for d := lo; d <= hi; d++ {
		fmt.Fprintf(w, "%d\t%d\t%.4f\t%.2f\n", d, h.Count(d), h.TailProb(d), float64(d)/hn)
	}
	w.Flush()
	sigmaMin := stats.Theorem42MinSigma(2, 2)
	fmt.Printf("theorem 4.2 threshold: sigma >= g*k*e^2 = %.1f (depth %.0f); bound there: %.2e\n",
		sigmaMin, sigmaMin*hn, stats.Theorem42Bound(n, 2, 2, sigmaMin))
	fmt.Printf("observed max sigma = %.2f — far below the threshold, so the whp bound holds with huge slack.\n",
		float64(hi)/hn)
}

// expRounds — E3: recursion depth (rounds) of Algorithm 3.
func expRounds() {
	w := table()
	fmt.Fprintln(w, "d\tn\trounds(mean)\trounds(max)\tdepth(mean)\trounds/ln n\tmax width\ttotal tasks")
	for _, cfg := range []struct {
		d  int
		ns []int
	}{
		{2, []int{1000, 10000, 100000}},
		{3, []int{1000, 10000, 50000}},
	} {
		for _, n0 := range cfg.ns {
			n := sz(n0)
			var rs, ds []float64
			maxWidth, totalTasks := 0, 0
			for s := 0; s < *seeds; s++ {
				pts := workload("sphere", int64(31*s+n0), n, cfg.d)
				var rounds, depth int
				var widths []int
				if cfg.d == 2 {
					res, _, err := hull2d.Rounds(pts, nil)
					if err != nil {
						fmt.Println("error:", err)
						return
					}
					rounds, depth, widths = res.Stats.Rounds, res.Stats.MaxDepth, res.Stats.RoundWidths
				} else {
					res, err := hulld.Rounds(pts, nil)
					if err != nil {
						fmt.Println("error:", err)
						return
					}
					rounds, depth, widths = res.Stats.Rounds, res.Stats.MaxDepth, res.Stats.RoundWidths
				}
				rs = append(rs, float64(rounds))
				ds = append(ds, float64(depth))
				maxWidth, totalTasks = 0, 0
				for _, wd := range widths {
					totalTasks += wd
					if wd > maxWidth {
						maxWidth = wd
					}
				}
			}
			r, d := stats.Summarize(rs), stats.Summarize(ds)
			fmt.Fprintf(w, "%d\t%d\t%.1f\t%.0f\t%.1f\t%.2f\t%d\t%d\n",
				cfg.d, n, r.Mean, r.Max, d.Mean, r.Mean/math.Log(float64(n)), maxWidth, totalTasks)
		}
	}
	w.Flush()
	fmt.Println("paper: recursion depth O(log n) whp (Theorem 5.3); rounds/ln n stays bounded.")
	fmt.Println("widths show the available parallelism: ~n tasks spread over O(log n) rounds.")
}

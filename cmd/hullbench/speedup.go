package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"parhull"
	"parhull/internal/geom"
	"parhull/internal/pointgen"
)

var (
	speedupOut = flag.String("speedup-out", "BENCH_speedup.json",
		"output path for the -exp speedup report")
	speedupProcs = flag.String("procs", "",
		"comma-separated GOMAXPROCS sweep for -exp speedup (default: 1,2,4,... up to NumCPU)")
	speedupReps = flag.Int("reps", 3,
		"timed repetitions per (workload, P) point for -exp speedup; the minimum is reported")
)

// parseProcs expands the -procs flag; with no flag it doubles from 1 and
// always ends at the machine's logical CPU count.
func parseProcs(s string, maxP int) []int {
	if s != "" {
		var ps []int
		for _, f := range strings.Split(s, ",") {
			p, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || p < 1 {
				log.Fatalf("speedup: bad -procs entry %q", f)
			}
			ps = append(ps, p)
		}
		return ps
	}
	var ps []int
	for p := 1; p < maxP; p *= 2 {
		ps = append(ps, p)
	}
	if len(ps) == 0 || ps[len(ps)-1] != maxP {
		ps = append(ps, maxP)
	}
	return ps
}

// minTime runs f reps times and returns the fastest wall time in ns (the
// usual benchmarking floor: the minimum is the least-perturbed run).
func minTime(reps int, f func() error) (float64, error) {
	best := 0.0
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		if el := float64(time.Since(t0).Nanoseconds()); best == 0 || el < best {
			best = el
		}
	}
	return best, nil
}

// expSpeedup — E11: measured multicore scaling of the full pipeline. For
// each workload and each P in the sweep, GOMAXPROCS and Options.Workers are
// pinned to P (so the curve does not depend on the ambient process
// configuration) and the public HullD/Hull2D runs with the pre-hull
// reduction off (pure engine scaling) and forced on (pipeline scaling).
// Speedup is relative to the first P of the sweep (self-speedup when that is
// 1); efficiency is speedup/P. A final ablation pair times 3d-ball-1m with
// and without the pre-hull at full parallelism — the E11 acceptance bar is a
// >= 25% wall-time cut at equal P. Everything lands in BENCH_speedup.json
// (same entry schema as -exp perf, plus the scaling fields).
func expSpeedup() {
	maxP := runtime.NumCPU()
	ps := parseProcs(*speedupProcs, maxP)
	fmt.Printf("machine parallelism: %d logical CPU(s); sweep P=%v, %d rep(s) per point\n",
		maxP, ps, *speedupReps)
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)

	type workload struct {
		name string
		dim  int
		pts  []geom.Point
	}
	wls := []workload{
		{"3d-ball-100k", 3, pointgen.Shuffled(pointgen.NewRNG(61),
			pointgen.UniformBall(pointgen.NewRNG(61), sz(100000), 3))},
		{"3d-clustered-100k", 3, pointgen.Shuffled(pointgen.NewRNG(62),
			pointgen.Clustered(pointgen.NewRNG(62), sz(100000), 3, 64, 0.01))},
		{"2d-disk-200k", 2, pointgen.Shuffled(pointgen.NewRNG(63),
			pointgen.UniformBall(pointgen.NewRNG(63), sz(200000), 2))},
	}
	report := perfReport{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GoMaxProcs: maxP,
		Scale:      *scale,
		Date:       time.Now().UTC().Format(time.RFC3339),
	}

	run := func(wl workload, p int, prehull bool) (float64, int, error) {
		runtime.GOMAXPROCS(p)
		opt := &parhull.Options{Workers: p, PreHull: parhull.PreHullOff}
		if prehull {
			opt.PreHull = parhull.PreHullOn
		}
		kept := 0
		ns, err := minTime(*speedupReps, func() error {
			if wl.dim == 2 {
				res, err := parhull.Hull2D(wl.pts, opt)
				if err == nil {
					kept = res.Stats.PreHullKept
				}
				return err
			}
			res, err := parhull.HullD(wl.pts, opt)
			if err == nil {
				kept = res.Stats.PreHullKept
			}
			return err
		})
		return ns, kept, err
	}

	w := table()
	fmt.Fprintln(w, "workload\tprehull\tP\tns/op\tspeedup\tefficiency\tkept")
	for _, wl := range wls {
		for _, prehull := range []bool{false, true} {
			var base float64
			for _, p := range ps {
				ns, kept, err := run(wl, p, prehull)
				if err != nil {
					log.Fatalf("speedup %s P=%d: %v", wl.name, p, err)
				}
				if base == 0 {
					base = ns * float64(ps[0])
				}
				speedup := base / (ns * float64(ps[0]))
				eff := base / (ns * float64(p))
				e := perfEntry{
					Workload:   wl.name,
					N:          len(wl.pts),
					Dim:        wl.dim,
					Sched:      "steal",
					Procs:      p,
					PreHull:    prehull,
					NsPerOp:    ns,
					Iterations: *speedupReps,
					Speedup:    speedup,
					Efficiency: eff,
					PreKept:    kept,
				}
				report.Entries = append(report.Entries, e)
				fmt.Fprintf(w, "%s\t%v\t%d\t%.0f\t%.2fx\t%.2f\t%d\n",
					wl.name, prehull, p, ns, speedup, eff, kept)
			}
		}
	}
	w.Flush()

	// Pre-hull ablation at full parallelism on the big interior-heavy cloud.
	pm := ps[len(ps)-1]
	big := workload{"3d-ball-1m", 3, pointgen.Shuffled(pointgen.NewRNG(64),
		pointgen.UniformBall(pointgen.NewRNG(64), sz(1000000), 3))}
	var times [2]float64
	for i, prehull := range []bool{false, true} {
		ns, kept, err := run(big, pm, prehull)
		if err != nil {
			log.Fatalf("speedup %s P=%d: %v", big.name, pm, err)
		}
		times[i] = ns
		report.Entries = append(report.Entries, perfEntry{
			Workload: big.name, N: len(big.pts), Dim: 3, Sched: "steal",
			Procs: pm, PreHull: prehull, NsPerOp: ns, Iterations: *speedupReps, PreKept: kept,
		})
	}
	cut := 100 * (1 - times[1]/times[0])
	fmt.Printf("%s at P=%d: direct %.3fs, pre-hull %.3fs — %.1f%% wall-time cut\n",
		big.name, pm, times[0]/1e9, times[1]/1e9, cut)

	data, err := json.MarshalIndent(&report, "", "  ")
	if err != nil {
		log.Fatalf("speedup: marshal: %v", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*speedupOut, data, 0o644); err != nil {
		log.Fatalf("speedup: write %s: %v", *speedupOut, err)
	}
	fmt.Printf("wrote %s (%d entries)\n", *speedupOut, len(report.Entries))
}

package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"testing"
	"time"

	"parhull/internal/geom"
	"parhull/internal/hull2d"
	"parhull/internal/hulld"
	"parhull/internal/pointgen"
)

var benchOut = flag.String("out", "BENCH_parhull.json", "output path for the -exp perf report")

// perfEntry is one (workload, schedule) measurement. ns/op, allocs/op and
// B/op come from testing.Benchmark; facets, depth and rounds are structural
// properties of the workload (identical across schedules, Theorem 5.5) from
// one counted run each of Par and Rounds. Sched names the row's schedule or
// phase ("steal" for the parallel engine; the reuse and spaces experiments
// use their own labels).
type perfEntry struct {
	Workload    string  `json:"workload"`
	N           int     `json:"n"`
	Dim         int     `json:"dim"`
	Sched       string  `json:"sched"`
	Procs       int     `json:"procs"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
	Facets      int     `json:"facets"`
	Depth       int     `json:"depth"`
	Rounds      int     `json:"rounds"`
	// PeakBytes is the sampled peak live-heap growth of one counted run of
	// the workload (Stats.PeakBytes; 0 in rows measured with counters off).
	PeakBytes int64 `json:"peak_bytes,omitempty"`
	// Scaling fields, set by the -exp speedup sweep only: GOMAXPROCS and
	// Options.Workers are pinned to Procs for the row; Speedup is relative
	// to the sweep's first P (self-speedup when that is 1), Efficiency is
	// Speedup/Procs, PreKept is Stats.PreHullKept when PreHull is on.
	PreHull    bool    `json:"prehull,omitempty"`
	Speedup    float64 `json:"speedup,omitempty"`
	Efficiency float64 `json:"efficiency,omitempty"`
	PreKept    int     `json:"prehull_kept,omitempty"`
}

type perfReport struct {
	GoVersion  string      `json:"go_version"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	GoMaxProcs int         `json:"gomaxprocs"`
	Scale      float64     `json:"scale"`
	Date       string      `json:"date"`
	Entries    []perfEntry `json:"entries"`
}

// expPerf — machine-readable benchmark export. Runs each workload on the
// parallel engine with testing.Benchmark and writes BENCH_parhull.json (CI
// uploads it as an artifact), so regressions in ns/op or allocs/op are
// diffable across commits without scraping table output.
func expPerf() {
	type workload struct {
		name string
		dim  int
		pts  []geom.Point
	}
	wls := []workload{
		{"3d-ball-100k", 3, pointgen.Shuffled(pointgen.NewRNG(41), pointgen.UniformBall(pointgen.NewRNG(41), sz(100000), 3))},
		{"3d-sphere-20k", 3, pointgen.OnSphere(pointgen.NewRNG(42), sz(20000), 3)},
		{"2d-disk-100k", 2, pointgen.Shuffled(pointgen.NewRNG(43), pointgen.UniformBall(pointgen.NewRNG(43), sz(100000), 2))},
		{"2d-circle-100k", 2, pointgen.OnCircle(pointgen.NewRNG(44), sz(100000))},
	}
	report := perfReport{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Scale:      *scale,
		Date:       time.Now().UTC().Format(time.RFC3339),
	}
	w := table()
	fmt.Fprintln(w, "workload\tns/op\tallocs/op\tB/op\tfacets\tdepth\trounds\tpeakB")
	for _, wl := range wls {
		var facets, depth, rounds int
		var peak int64
		if wl.dim == 2 {
			res, err := hull2d.Par(wl.pts, &hull2d.Options{})
			if err != nil {
				log.Fatalf("perf %s: %v", wl.name, err)
			}
			facets, depth, peak = len(res.Created), res.Stats.MaxDepth, res.Stats.PeakBytes
			rres, _, err := hull2d.Rounds(wl.pts, &hull2d.Options{})
			if err != nil {
				log.Fatalf("perf %s rounds: %v", wl.name, err)
			}
			rounds = rres.Stats.Rounds
		} else {
			res, err := hulld.Par(wl.pts, &hulld.Options{})
			if err != nil {
				log.Fatalf("perf %s: %v", wl.name, err)
			}
			facets, depth, peak = len(res.Created), res.Stats.MaxDepth, res.Stats.PeakBytes
			rres, err := hulld.Rounds(wl.pts, &hulld.Options{})
			if err != nil {
				log.Fatalf("perf %s rounds: %v", wl.name, err)
			}
			rounds = rres.Stats.Rounds
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if wl.dim == 2 {
					_, err = hull2d.Par(wl.pts, &hull2d.Options{NoCounters: true})
				} else {
					_, err = hulld.Par(wl.pts, &hulld.Options{NoCounters: true})
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		e := perfEntry{
			Workload:    wl.name,
			N:           len(wl.pts),
			Dim:         wl.dim,
			Sched:       "steal",
			Procs:       runtime.GOMAXPROCS(0),
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Iterations:  r.N,
			Facets:      facets,
			Depth:       depth,
			Rounds:      rounds,
			PeakBytes:   peak,
		}
		report.Entries = append(report.Entries, e)
		fmt.Fprintf(w, "%s\t%.0f\t%d\t%d\t%d\t%d\t%d\t%d\n", e.Workload,
			e.NsPerOp, e.AllocsPerOp, e.BytesPerOp, e.Facets, e.Depth, e.Rounds, e.PeakBytes)
	}
	w.Flush()
	data, err := json.MarshalIndent(&report, "", "  ")
	if err != nil {
		log.Fatalf("perf: marshal: %v", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*benchOut, data, 0o644); err != nil {
		log.Fatalf("perf: write %s: %v", *benchOut, err)
	}
	fmt.Printf("wrote %s (%d entries)\n", *benchOut, len(report.Entries))
}

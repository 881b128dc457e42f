package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"
	"testing"

	"parhull"
	"parhull/internal/pointgen"
)

var reuseGate = flag.Int64("reuse-gate", 100,
	"fail the reuse experiment if steady-state allocs/op on 3d-ball-100k exceeds this (<= 0 disables)")

// reuseDefaultGate bounds the steady-state allocs/op on 3d-ball-100k under
// the default options (Shuffle, PreHullAuto).
const reuseDefaultGate = 1000

var reusePeakGate = flag.Float64("reuse-peak-gate", 10,
	"fail the reuse experiment if the steady-state live-heap peak grows by more than this percentage over the previous BENCH_parhull.json reuse-steady row (<= 0 disables)")

// expReuse — Builder reuse: the first Build on a parhull.Builder pays for the
// worker pool, arenas, ridge table, and output buffers; every later Build
// recycles them. This experiment measures both phases on the headline perf
// workload (3d-ball-100k, counters off, direct path — the same configuration
// as the perf export's steal row), appends the rows to BENCH_parhull.json,
// and acts as the CI allocation gate: a steady-state allocs/op above
// -reuse-gate fails the run, so a pooling regression (a buffer silently
// dropped from the reuse path) cannot land quietly. The direct-path rows run
// at GOMAXPROCS=1, the configuration the gate was recorded at: with more
// procs, conflict lists long enough to split spawn parallel filter pieces
// whose goroutines and pooled scratch scale with P, so the count would
// measure the runner, not the pooling. The live-heap peak of the memory gate
// and a further row — the steady state under the default options (Shuffle
// on, PreHullAuto), where the pre-hull probe, cull, and block sub-hulls run
// too; reuseDefaultGate bounds it — are measured at full P.
func expReuse() {
	pts := pointgen.Shuffled(pointgen.NewRNG(41), pointgen.UniformBall(pointgen.NewRNG(41), sz(100000), 3))
	opt := &parhull.Options{NoCounters: true, PreHull: parhull.PreHullOff}

	procs := runtime.GOMAXPROCS(1)
	first := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bld := parhull.NewBuilder(opt)
			if _, err := bld.Build(pts); err != nil {
				b.Fatal(err)
			}
			bld.Close()
		}
	})

	bld := parhull.NewBuilder(opt)
	defer bld.Close()
	if _, err := bld.Build(pts); err != nil {
		log.Fatalf("reuse: warm-up build: %v", err)
	}
	steady := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := bld.Build(pts); err != nil {
				b.Fatal(err)
			}
		}
	})

	runtime.GOMAXPROCS(procs)

	// One counted steady-state Build (counters on, same pooled Builder state)
	// samples the live-heap peak for the memory gate. PeakBytes needs the
	// counter infrastructure, so it cannot come from the timed runs above.
	// It runs at full P: at P=1 a steady-state build grows the live heap by
	// nothing, which would leave the relative peak gate nothing to compare.
	counted := parhull.NewBuilder(&parhull.Options{PreHull: parhull.PreHullOff})
	defer counted.Close()
	if _, err := counted.Build(pts); err != nil {
		log.Fatalf("reuse: counted warm-up build: %v", err)
	}
	cres, err := counted.Build(pts)
	if err != nil {
		log.Fatalf("reuse: counted steady build: %v", err)
	}
	peak := cres.Stats.PeakBytes

	def := parhull.NewBuilder(&parhull.Options{Shuffle: true, Seed: 1})
	defer def.Close()
	if _, err := def.Build(pts); err != nil {
		log.Fatalf("reuse: default-options warm-up build: %v", err)
	}
	steadyDefault := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := def.Build(pts); err != nil {
				b.Fatal(err)
			}
		}
	})

	w := table()
	fmt.Fprintf(w, "phase\tns/op\tallocs/op\tB/op\tpeakB (P=%d)\n", procs)
	fmt.Fprintf(w, "first-build (P=1)\t%.0f\t%d\t%d\t\n",
		float64(first.T.Nanoseconds())/float64(first.N), first.AllocsPerOp(), first.AllocedBytesPerOp())
	fmt.Fprintf(w, "steady-state (P=1)\t%.0f\t%d\t%d\t%d\n",
		float64(steady.T.Nanoseconds())/float64(steady.N), steady.AllocsPerOp(), steady.AllocedBytesPerOp(), peak)
	fmt.Fprintf(w, "steady-default (P=%d)\t%.0f\t%d\t%d\t\n", procs,
		float64(steadyDefault.T.Nanoseconds())/float64(steadyDefault.N), steadyDefault.AllocsPerOp(), steadyDefault.AllocedBytesPerOp())
	w.Flush()

	prevPeak := appendReuseEntries(len(pts), procs, first, steady, steadyDefault, peak)

	if steadyDefault.AllocsPerOp() > reuseDefaultGate {
		log.Fatalf("reuse default gate: default-options steady-state allocs/op = %d exceeds the gate of %d",
			steadyDefault.AllocsPerOp(), reuseDefaultGate)
	}
	if *reuseGate > 0 && steady.AllocsPerOp() > *reuseGate {
		log.Fatalf("reuse gate: steady-state allocs/op = %d exceeds the gate of %d",
			steady.AllocsPerOp(), *reuseGate)
	}
	// The peak gate is relative: the steady-state live-heap peak may not grow
	// more than -reuse-peak-gate percent over the previous recorded row. A
	// pooling regression that leaks whole arenas (rather than stray small
	// allocations, which the allocs gate catches) shows up here first.
	if *reusePeakGate > 0 && prevPeak > 0 && peak > 0 {
		limit := int64(float64(prevPeak) * (1 + *reusePeakGate/100))
		if peak > limit {
			log.Fatalf("reuse peak gate: steady-state PeakBytes = %d exceeds %d (previous %d + %.0f%%)",
				peak, limit, prevPeak, *reusePeakGate)
		}
	}
}

// appendReuseEntries merges the three reuse rows into the perf report at
// -out (replacing any previous reuse rows; creating the report when the perf
// experiment has not run), so BENCH_parhull.json carries the first-build and
// both steady-state numbers alongside the perf rows; procs is the
// GOMAXPROCS of the default-options row and of the peak sample (the timed
// direct-path rows ran at 1). It returns the PeakBytes of the reuse-steady row being replaced (0 when there
// is none) — the baseline for the relative peak gate.
func appendReuseEntries(n, procs int, first, steady, steadyDefault testing.BenchmarkResult, peak int64) int64 {
	var prevPeak int64
	report := perfReport{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Scale:      *scale,
	}
	if data, err := os.ReadFile(*benchOut); err == nil {
		var old perfReport
		if json.Unmarshal(data, &old) == nil {
			kept := old.Entries[:0]
			for _, e := range old.Entries {
				if e.Sched == "reuse-steady" {
					prevPeak = e.PeakBytes
				}
				if !strings.HasPrefix(e.Sched, "reuse-") {
					kept = append(kept, e)
				}
			}
			old.Entries = kept
			report = old
		}
	}
	for _, row := range []struct {
		sched string
		procs int
		r     testing.BenchmarkResult
		peak  int64
	}{{"reuse-first", 1, first, 0}, {"reuse-steady", 1, steady, peak}, {"reuse-steady-default", procs, steadyDefault, 0}} {
		report.Entries = append(report.Entries, perfEntry{
			Workload:    "3d-ball-100k",
			N:           n,
			Dim:         3,
			Sched:       row.sched,
			Procs:       row.procs,
			NsPerOp:     float64(row.r.T.Nanoseconds()) / float64(row.r.N),
			AllocsPerOp: row.r.AllocsPerOp(),
			BytesPerOp:  row.r.AllocedBytesPerOp(),
			Iterations:  row.r.N,
			PeakBytes:   row.peak,
		})
	}
	data, err := json.MarshalIndent(&report, "", "  ")
	if err != nil {
		log.Fatalf("reuse: marshal: %v", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*benchOut, data, 0o644); err != nil {
		log.Fatalf("reuse: write %s: %v", *benchOut, err)
	}
	fmt.Printf("updated %s (%d entries)\n", *benchOut, len(report.Entries))
	return prevPeak
}

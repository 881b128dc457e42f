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
	"fail the reuse experiment if steady-state allocs/op on 3d-ball-100k exceeds this, under the parallel, the sequential or the rounds engine (<= 0 disables)")

// reuseDefaultGate bounds the steady-state allocs/op on 3d-ball-100k under
// the default options (Shuffle, PreHullAuto).
const reuseDefaultGate = 1000

// reuse2DCASBytesGate bounds the steady-state B/op of a warm Build2D of the
// 1e5 disk with the CAS ridge map (reuse-steady-2d-cas). The row allocates
// one small entry per ridge insert by design (Algorithm 4), so its allocs/op
// is not gated; what the byte gate catches is a per-build n-sized buffer
// that the Builder should retain, such as the ridge-id array behind the
// map's keys (about 400 KB at n = 1e5).
const reuse2DCASBytesGate = 200000

var reusePeakGate = flag.Float64("reuse-peak-gate", 10,
	"fail the reuse experiment if the steady-state live-heap peak grows by more than this percentage over the previous BENCH_parhull.json reuse-steady row (<= 0 disables)")

// reuseRow is one measured row of the reuse experiment on workload (of
// dimension dim); gated rows are held to -reuse-gate, and a row with a
// positive bytesGate to that B/op.
type reuseRow struct {
	sched     string
	procs     int
	r         testing.BenchmarkResult
	peak      int64
	gated     bool
	workload  string
	dim       int
	bytesGate int64
}

// expReuse — Builder reuse: the first Build on a parhull.Builder pays for the
// worker pool, arenas, ridge table, and output buffers; every later Build
// recycles them, under every schedule. This experiment measures both phases
// on the headline perf workload (3d-ball-100k, counters off, direct path —
// the same configuration as the perf export's steal row), appends the rows
// to BENCH_parhull.json, and acts as the CI allocation gate: a steady-state
// allocs/op above -reuse-gate under the parallel engine (reuse-steady), the
// sequential one (reuse-steady-seq) or the rounds one (reuse-steady-rounds)
// fails the run, so a pooling regression (a buffer silently dropped from the
// reuse path) cannot land quietly. The direct-path rows run at
// GOMAXPROCS=1, the configuration the gate was recorded at:
// with more procs, conflict lists long enough to split spawn parallel
// filter pieces whose goroutines and pooled scratch scale with P, so the
// count would measure the runner, not the pooling. The live-heap peak of
// the memory gate and a further row — the steady state under the default
// options (Shuffle on, PreHullAuto), where the pre-hull probe, cull, and
// block sub-hulls run too; reuseDefaultGate bounds it — are measured at
// full P. One 2D row, reuse-steady-2d-cas (warm Build2D of the 1e5 disk with
// MapCAS, direct path, P=1), is held to reuse2DCASBytesGate B/op.
func expReuse() {
	pts := pointgen.Shuffled(pointgen.NewRNG(41), pointgen.UniformBall(pointgen.NewRNG(41), sz(100000), 3))
	direct := func(e parhull.Engine) *parhull.Options {
		return &parhull.Options{Engine: e, NoCounters: true, PreHull: parhull.PreHullOff}
	}

	opt := direct(parhull.EngineParallel)

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
	steady := steadyBuilds(pts, opt)
	steadySeq := steadyBuilds(pts, direct(parhull.EngineSequential))
	steadyRounds := steadyBuilds(pts, direct(parhull.EngineRounds))
	disk := pointgen.Shuffled(pointgen.NewRNG(42), pointgen.UniformBall(pointgen.NewRNG(42), sz(100000), 2))
	cas := direct(parhull.EngineParallel)
	cas.Map = parhull.MapCAS
	steady2DCAS := steadyOn(cas, func(bld *parhull.Builder) error {
		_, err := bld.Build2D(disk)
		return err
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

	steadyDefault := steadyBuilds(pts, &parhull.Options{Shuffle: true, Seed: 1})

	const ball = "3d-ball-100k"
	rows := []reuseRow{
		{"reuse-first", 1, first, 0, false, ball, 3, 0},
		{"reuse-steady", 1, steady, peak, true, ball, 3, 0},
		{"reuse-steady-seq", 1, steadySeq, 0, true, ball, 3, 0},
		{"reuse-steady-rounds", 1, steadyRounds, 0, true, ball, 3, 0},
		{"reuse-steady-default", procs, steadyDefault, 0, false, ball, 3, 0},
		{"reuse-steady-2d-cas", 1, steady2DCAS, 0, false, "2d-disk-100k", 2, reuse2DCASBytesGate},
	}
	w := table()
	fmt.Fprintf(w, "phase\tns/op\tallocs/op\tB/op\tpeakB (P=%d)\n", procs)
	for _, row := range rows {
		peakCol := ""
		if row.peak > 0 {
			peakCol = fmt.Sprint(row.peak)
		}
		fmt.Fprintf(w, "%s (P=%d)\t%.0f\t%d\t%d\t%s\n", strings.TrimPrefix(row.sched, "reuse-"), row.procs,
			float64(row.r.T.Nanoseconds())/float64(row.r.N), row.r.AllocsPerOp(), row.r.AllocedBytesPerOp(), peakCol)
	}
	w.Flush()

	prevPeak := appendReuseEntries(len(pts), rows)

	if steadyDefault.AllocsPerOp() > reuseDefaultGate {
		log.Fatalf("reuse default gate: default-options steady-state allocs/op = %d exceeds the gate of %d",
			steadyDefault.AllocsPerOp(), reuseDefaultGate)
	}
	for _, row := range rows {
		if row.gated && *reuseGate > 0 && row.r.AllocsPerOp() > *reuseGate {
			log.Fatalf("reuse gate: %s allocs/op = %d exceeds the gate of %d",
				row.sched, row.r.AllocsPerOp(), *reuseGate)
		}
		if row.bytesGate > 0 && row.r.AllocedBytesPerOp() > row.bytesGate {
			log.Fatalf("reuse bytes gate: %s B/op = %d exceeds the gate of %d",
				row.sched, row.r.AllocedBytesPerOp(), row.bytesGate)
		}
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

// steadyBuilds measures warm Builds of pts on one Builder under opt, after
// a warm-up Build.
func steadyBuilds(pts []parhull.Point, opt *parhull.Options) testing.BenchmarkResult {
	return steadyOn(opt, func(bld *parhull.Builder) error {
		_, err := bld.Build(pts)
		return err
	})
}

// steadyOn measures warm runs of build on one Builder under opt, after a
// warm-up run.
func steadyOn(opt *parhull.Options, build func(*parhull.Builder) error) testing.BenchmarkResult {
	bld := parhull.NewBuilder(opt)
	defer bld.Close()
	if err := build(bld); err != nil {
		log.Fatalf("reuse: warm-up build (engine %d): %v", opt.Engine, err)
	}
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := build(bld); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// appendReuseEntries merges the reuse rows into the perf report at -out
// (replacing any previous reuse rows; creating the report when the perf
// experiment has not run), so BENCH_parhull.json carries the first-build and
// steady-state numbers alongside the perf rows. It returns the PeakBytes of
// the reuse-steady row being replaced (0 when there is none) — the baseline
// for the relative peak gate.
func appendReuseEntries(n int, rows []reuseRow) int64 {
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
	for _, row := range rows {
		report.Entries = append(report.Entries, perfEntry{
			Workload:    row.workload,
			N:           n,
			Dim:         row.dim,
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

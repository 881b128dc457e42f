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
	"fail the reuse experiment if the bytes a warm Builder retains (Builder.RetainedBytes on the reuse-steady row) grow by more than this percentage over the previous -out file's reuse-steady row (<= 0 disables)")

// reuseRow is one measured row of the reuse experiment on workload (of
// dimension dim); gated rows are held to -reuse-gate, and a row with a
// positive bytesGate to that B/op. retained is the warm Builder's
// RetainedBytes, recorded for the reuse-steady row.
type reuseRow struct {
	sched     string
	procs     int
	r         testing.BenchmarkResult
	retained  int64
	gated     bool
	workload  string
	dim       int
	bytesGate int64
}

// expReuse — Builder reuse: the first Build on a parhull.Builder pays for the
// worker pool, arenas, ridge table, and output buffers; every later Build
// recycles them, under every schedule. This experiment measures both phases
// on the headline perf workload (3d-ball-100k, direct path — the same
// configuration as the perf export's steal row), appends the rows to
// BENCH_parhull.json, and acts as the CI allocation gate: a steady-state
// allocs/op above -reuse-gate under the parallel engine (reuse-steady), the
// sequential one (reuse-steady-seq) or the rounds one (reuse-steady-rounds)
// fails the run, so a pooling regression (a buffer silently dropped from the
// reuse path) cannot land quietly. The direct-path rows run at
// GOMAXPROCS=1 and Workers 1, the configuration the gate was recorded at:
// with more procs, conflict lists long enough to split spawn parallel
// filter pieces whose goroutines and pooled scratch scale with P, so the
// count would measure the runner, not the pooling. The memory gate reads
// the exact bytes the reuse-steady row's warm Builder retains in arenas and
// ridge tables (Builder.RetainedBytes), which on one input, one schedule and
// one worker is the same on every run. One further row — the steady state
// under the default options (Shuffle on, PreHullAuto), where the pre-hull
// probe, cull, and block sub-hulls run too; reuseDefaultGate bounds it — is
// measured at full P. One 2D row, reuse-steady-2d-cas (warm Build2D of the
// 1e5 disk with MapCAS, direct path, P=1), is held to reuse2DCASBytesGate
// B/op.
func expReuse() {
	pts := pointgen.Shuffled(pointgen.NewRNG(41), pointgen.UniformBall(pointgen.NewRNG(41), sz(100000), 3))
	direct := func(e parhull.Engine) *parhull.Options {
		return &parhull.Options{Engine: e, PreHull: parhull.PreHullOff, Workers: 1}
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
	steady, retained := steadyBuilds(pts, opt)
	steadySeq, _ := steadyBuilds(pts, direct(parhull.EngineSequential))
	steadyRounds, _ := steadyBuilds(pts, direct(parhull.EngineRounds))
	disk := pointgen.Shuffled(pointgen.NewRNG(42), pointgen.UniformBall(pointgen.NewRNG(42), sz(100000), 2))
	cas := direct(parhull.EngineParallel)
	cas.Map = parhull.MapCAS
	steady2DCAS, _ := steadyOn(cas, func(bld *parhull.Builder) error {
		_, err := bld.Build2D(disk)
		return err
	})
	runtime.GOMAXPROCS(procs)

	steadyDefault, _ := steadyBuilds(pts, &parhull.Options{Shuffle: true, Seed: 1})

	const ball = "3d-ball-100k"
	rows := []reuseRow{
		{"reuse-first", 1, first, 0, false, ball, 3, 0},
		{"reuse-steady", 1, steady, retained, true, ball, 3, 0},
		{"reuse-steady-seq", 1, steadySeq, 0, true, ball, 3, 0},
		{"reuse-steady-rounds", 1, steadyRounds, 0, true, ball, 3, 0},
		{"reuse-steady-default", procs, steadyDefault, 0, false, ball, 3, 0},
		{"reuse-steady-2d-cas", 1, steady2DCAS, 0, false, "2d-disk-100k", 2, reuse2DCASBytesGate},
	}
	w := table()
	fmt.Fprintf(w, "phase\tns/op\tallocs/op\tB/op\tretainedB\n")
	for _, row := range rows {
		retainedCol := ""
		if row.retained > 0 {
			retainedCol = fmt.Sprint(row.retained)
		}
		fmt.Fprintf(w, "%s (P=%d)\t%.0f\t%d\t%d\t%s\n", strings.TrimPrefix(row.sched, "reuse-"), row.procs,
			float64(row.r.T.Nanoseconds())/float64(row.r.N), row.r.AllocsPerOp(), row.r.AllocedBytesPerOp(), retainedCol)
	}
	w.Flush()

	prevRetained := appendReuseEntries(len(pts), rows)

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
	// The memory gate is relative: the bytes the warm Builder retains may not
	// grow more than -reuse-peak-gate percent over the previous recorded
	// reuse-steady row's. A pooling regression that leaks whole arenas
	// (rather than stray small allocations, which the allocs gate catches)
	// shows up here first.
	if *reusePeakGate > 0 && prevRetained > 0 {
		limit := int64(float64(prevRetained) * (1 + *reusePeakGate/100))
		if retained > limit {
			log.Fatalf("reuse peak gate: steady-state RetainedBytes = %d exceeds %d (previous %d + %.0f%%)",
				retained, limit, prevRetained, *reusePeakGate)
		}
	}
}

// steadyBuilds measures warm Builds of pts on one Builder under opt, after
// a warm-up Build (see steadyOn).
func steadyBuilds(pts []parhull.Point, opt *parhull.Options) (testing.BenchmarkResult, int64) {
	return steadyOn(opt, func(bld *parhull.Builder) error {
		_, err := bld.Build(pts)
		return err
	})
}

// steadyOn measures warm runs of build on one Builder under opt, after a
// warm-up run, and returns the bytes the Builder retains after them.
func steadyOn(opt *parhull.Options, build func(*parhull.Builder) error) (testing.BenchmarkResult, int64) {
	bld := parhull.NewBuilder(opt)
	defer bld.Close()
	if err := build(bld); err != nil {
		log.Fatalf("reuse: warm-up build (engine %d): %v", opt.Engine, err)
	}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := build(bld); err != nil {
				b.Fatal(err)
			}
		}
	})
	return r, bld.RetainedBytes()
}

// appendReuseEntries merges the reuse rows into the perf report at -out
// (replacing any previous reuse rows; creating the report when the perf
// experiment has not run), so BENCH_parhull.json carries the first-build and
// steady-state numbers alongside the perf rows. It returns the RetainedBytes
// of the reuse-steady row being replaced (0 when there is none, or when that
// row predates the field) — the baseline for the relative memory gate.
func appendReuseEntries(n int, rows []reuseRow) int64 {
	var prevRetained int64
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
					prevRetained = e.RetainedBytes
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
			Workload:      row.workload,
			N:             n,
			Dim:           row.dim,
			Sched:         row.sched,
			Procs:         row.procs,
			NsPerOp:       float64(row.r.T.Nanoseconds()) / float64(row.r.N),
			AllocsPerOp:   row.r.AllocsPerOp(),
			BytesPerOp:    row.r.AllocedBytesPerOp(),
			Iterations:    row.r.N,
			RetainedBytes: row.retained,
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
	return prevRetained
}

package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"text/tabwriter"
	"time"

	"parhull/internal/hulld"
	"parhull/internal/pointgen"
)

var hugeScale = flag.Bool("huge", false,
	"include the 3d-ball-100m row in -exp scale (minutes of runtime, several GB of memory)")

// scaleWorkloads are the workload names owned by -exp scale; the merge into
// BENCH_parhull.json replaces exactly these rows.
var scaleWorkloads = []string{"3d-ball-10m", "3d-ball-100m"}

// expScale — the large-n rows (DESIGN.md §4.7): one counted run each of
// 3d-ball-10m (and 3d-ball-100m behind -huge) with counters on, recording
// ns/op, allocs, and the sampled live-heap peak — the evidence that the
// grow-only arenas hold at 1e7+. The rows land in BENCH_parhull.json.
func expScale() {
	w := table()
	fmt.Fprintln(w, "workload\tsched\tns/op\tallocs/op\tB/op\tfacets\tdepth\tpeakB")
	var entries []perfEntry

	sizes := []struct {
		name string
		n    int
	}{{"3d-ball-10m", sz(10000000)}}
	if *hugeScale {
		sizes = append(sizes, struct {
			name string
			n    int
		}{"3d-ball-100m", sz(100000000)})
	}
	for _, sp := range sizes {
		runtime.GC()
		big := pointgen.Shuffled(pointgen.NewRNG(46), pointgen.UniformBall(pointgen.NewRNG(46), sp.n, 3))
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		res, err := hulld.Par(big, &hulld.Options{})
		elapsed := time.Since(t0).Nanoseconds()
		if err != nil {
			log.Fatalf("scale %s: %v", sp.name, err)
		}
		runtime.ReadMemStats(&m1)
		e := perfEntry{
			Workload:    sp.name,
			N:           sp.n,
			Dim:         3,
			Sched:       "steal",
			Procs:       runtime.GOMAXPROCS(0),
			NsPerOp:     float64(elapsed),
			AllocsPerOp: int64(m1.Mallocs - m0.Mallocs),
			BytesPerOp:  int64(m1.TotalAlloc - m0.TotalAlloc),
			Iterations:  1,
			Facets:      len(res.Created),
			Depth:       res.Stats.MaxDepth,
			PeakBytes:   res.Stats.PeakBytes,
		}
		entries = append(entries, e)
		printScaleRow(w, e)
	}
	w.Flush()
	appendScaleEntries(entries)
}

func printScaleRow(w *tabwriter.Writer, e perfEntry) {
	fmt.Fprintf(w, "%s\t%s\t%.0f\t%d\t%d\t%d\t%d\t%d\n", e.Workload, e.Sched,
		e.NsPerOp, e.AllocsPerOp, e.BytesPerOp, e.Facets, e.Depth, e.PeakBytes)
}

// appendScaleEntries merges the scale rows into the perf report at -out,
// replacing any previous scale rows (and creating the report if the perf
// experiment has not run).
func appendScaleEntries(entries []perfEntry) {
	report := perfReport{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Scale:      *scale,
	}
	owned := map[string]bool{}
	for _, n := range scaleWorkloads {
		owned[n] = true
	}
	if data, err := os.ReadFile(*benchOut); err == nil {
		var old perfReport
		if json.Unmarshal(data, &old) == nil {
			kept := old.Entries[:0]
			for _, e := range old.Entries {
				if !owned[e.Workload] {
					kept = append(kept, e)
				}
			}
			old.Entries = kept
			report = old
		}
	}
	report.Entries = append(report.Entries, entries...)
	data, err := json.MarshalIndent(&report, "", "  ")
	if err != nil {
		log.Fatalf("scale: marshal: %v", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*benchOut, data, 0o644); err != nil {
		log.Fatalf("scale: write %s: %v", *benchOut, err)
	}
	fmt.Printf("updated %s (%d entries)\n", *benchOut, len(report.Entries))
}

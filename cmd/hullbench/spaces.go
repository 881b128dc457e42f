package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"parhull"
	"parhull/internal/circles"
	"parhull/internal/core"
	"parhull/internal/corner"
	"parhull/internal/delaunay"
	"parhull/internal/engine"
	"parhull/internal/geom"
	"parhull/internal/halfspace"
	"parhull/internal/pointgen"
	"parhull/internal/trapezoid"
)

var spacesGate = flag.Float64("spaces-gate", 0,
	"fail the spaces experiment if the Delaunay engine speedup over the reference triangulator at P=1 falls below this (<= 0 disables)")

// expSpaces — EXT: every configuration space on the fast engine. The headline
// row pits the Delaunay route (the lifted lower hull on the 3D hull kernel:
// flat facet arena, cached lifted-plane in-circle filter, fused batch
// conflict scan) against the seed's map-based reference triangulator on 100k
// uniform-square points at P=1 — the route is only worth keeping if it wins
// by a wide margin — plus a full-P row for color. The remaining rows measure
// the public entry points that now run on engine.SpaceRounds with batch
// ConflictScanners (half-space direct, circles, trapezoid, corner), and each
// space is first cross-checked against the T(X) oracle (core.Active) on a
// tiny instance so the table never reports a fast wrong answer. Rows are
// merged into BENCH_parhull.json.
func expSpaces() {
	checkSpaceOracles()

	rng := pointgen.NewRNG(61)
	pts := pointgen.Shuffled(rng, pointgen.InCube(pointgen.NewRNG(61), sz(100000), 2))

	ref, err := delaunay.Triangulate(pts)
	if err != nil {
		log.Fatalf("spaces: reference triangulation: %v", err)
	}
	eng, err := parhull.Delaunay(pts, &parhull.Options{Engine: parhull.EngineSequential})
	if err != nil {
		log.Fatalf("spaces: engine triangulation: %v", err)
	}
	if len(eng.Triangles) != len(ref.Triangles) {
		log.Fatalf("spaces: engine produced %d triangles, reference %d", len(eng.Triangles), len(ref.Triangles))
	}
	created := int(eng.Stats.FacetsCreated)

	w := table()
	fmt.Fprintln(w, "row\tn\tns/op\tallocs/op\tB/op\tcreated\trounds")
	var entries []perfEntry
	row := func(workload, sched string, n, created, rounds int, r testing.BenchmarkResult) {
		e := perfEntry{
			Workload:    workload,
			N:           n,
			Dim:         2,
			Sched:       sched,
			Procs:       runtime.GOMAXPROCS(0),
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Iterations:  r.N,
			Facets:      created,
			Rounds:      rounds,
		}
		entries = append(entries, e)
		fmt.Fprintf(w, "%s/%s\t%d\t%.0f\t%d\t%d\t%d\t%d\n",
			workload, sched, e.N, e.NsPerOp, e.AllocsPerOp, e.BytesPerOp, created, rounds)
	}

	bref := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := delaunay.Triangulate(pts); err != nil {
				b.Fatal(err)
			}
		}
	})
	row("space-delaunay", "reference", len(pts), len(ref.Created), 0, bref)

	// The P=1 engine row runs the parallel schedule on one worker: same flat
	// arena and fused batch filter, no parallelism — the fair single-core
	// comparison against the purely sequential reference.
	bseq := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := parhull.Delaunay(pts, &parhull.Options{NoCounters: true, Workers: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	row("space-delaunay", "engine-p1", len(pts), created, 0, bseq)

	bpar := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := parhull.Delaunay(pts, &parhull.Options{NoCounters: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	row("space-delaunay", "engine-par", len(pts), created, 0, bpar)

	speedup := float64(bref.T.Nanoseconds()) / float64(bref.N) /
		(float64(bseq.T.Nanoseconds()) / float64(bseq.N))

	normals := append(halfspace.BoundingSimplex(3),
		pointgen.OnSphere(pointgen.NewRNG(62), sz(40), 3)...)
	hres, err := parhull.HalfspaceIntersectionDirect(normals, nil)
	if err != nil {
		log.Fatalf("spaces: halfspace direct: %v", err)
	}
	bh := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := parhull.HalfspaceIntersectionDirect(normals, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	row("space-halfspace", "rounds", len(normals),
		int(hres.Stats.FacetsCreated), hres.Stats.Rounds, bh)

	crng := pointgen.NewRNG(63)
	centers := make([]geom.Point, sz(200))
	for i := range centers {
		centers[i] = geom.Point{crng.Float64() * 0.8, crng.Float64() * 0.8}
	}
	if _, ok, err := parhull.UnitCircleIntersection(centers, nil); err != nil || !ok {
		log.Fatalf("spaces: circles: ok=%v err=%v", ok, err)
	}
	bc := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := parhull.UnitCircleIntersection(centers, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	row("space-circles", "rounds", len(centers), 0, 0, bc)

	segs, box := spacesSegments(sz(40))
	if _, err := parhull.TrapezoidDecomposition(segs, box, nil); err != nil {
		log.Fatalf("spaces: trapezoid: %v", err)
	}
	bt := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := parhull.TrapezoidDecomposition(segs, box, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	row("space-trapezoid", "rounds", len(segs), 0, 0, bt)

	cpts := pointgen.Grid3D(3)
	if _, err := parhull.Hull3DDegenerate(cpts, nil); err != nil {
		log.Fatalf("spaces: corner: %v", err)
	}
	bk := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := parhull.Hull3DDegenerate(cpts, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	row("space-corner", "rounds", len(cpts), 0, 0, bk)

	w.Flush()
	fmt.Printf("delaunay engine speedup over reference at P=1: %.2fx\n", speedup)

	appendSpaceEntries(entries)

	if *spacesGate > 0 && speedup < *spacesGate {
		log.Fatalf("spaces gate: engine speedup %.2fx is below the gate of %.2fx", speedup, *spacesGate)
	}
}

// checkSpaceOracles cross-checks engine.SpaceRounds against the T(X) oracle
// on one tiny instance of every space before anything is timed.
func checkSpaceOracles() {
	rng := pointgen.NewRNG(64)
	dpts := append([]geom.Point{{0, 8}, {-8, -6}, {8, -6}},
		pointgen.UniformBall(rng, 6, 2)...)
	ds, err := delaunay.NewSpace(dpts)
	if err != nil {
		log.Fatalf("spaces: oracle delaunay: %v", err)
	}
	cs, err := corner.NewSpace(append(pointgen.Grid3D(2), geom.Point{0.5, 0.5, 0.5}))
	if err != nil {
		log.Fatalf("spaces: oracle corner: %v", err)
	}
	centers := make([]geom.Point, 6)
	for i := range centers {
		centers[i] = geom.Point{rng.Float64() * 0.8, rng.Float64() * 0.8}
	}
	us, err := circles.NewSpace(centers)
	if err != nil {
		log.Fatalf("spaces: oracle circles: %v", err)
	}
	hs, err := halfspace.NewSpace(append(halfspace.BoundingSimplex(2),
		pointgen.OnSphere(rng, 4, 2)...))
	if err != nil {
		log.Fatalf("spaces: oracle halfspace: %v", err)
	}
	tsegs, tbox := spacesSegments(5)
	ts, err := trapezoid.NewSpace(tsegs, tbox)
	if err != nil {
		log.Fatalf("spaces: oracle trapezoid: %v", err)
	}
	for _, sp := range []struct {
		name string
		s    core.Space
	}{{"delaunay", ds}, {"corner", cs}, {"circles", us}, {"halfspace", hs}, {"trapezoid", ts}} {
		order := make([]int, sp.s.NumObjects())
		for i := range order {
			order[i] = i
		}
		res, err := engine.SpaceRounds(context.Background(), nil, sp.s, order)
		if err != nil {
			log.Fatalf("spaces: oracle %s: SpaceRounds: %v", sp.name, err)
		}
		want := core.Active(sp.s, order)
		sort.Ints(want)
		if fmt.Sprint(res.Alive) != fmt.Sprint(want) {
			log.Fatalf("spaces: oracle %s: engine alive %v, T(X) %v", sp.name, res.Alive, want)
		}
	}
	fmt.Println("oracle check: engine alive set == T(X) on all five spaces")
}

// spacesSegments builds m non-touching horizontal segments in a 100x100 box.
func spacesSegments(m int) ([]parhull.TrapezoidSegment, parhull.TrapezoidBox) {
	rng := pointgen.NewRNG(65)
	segs := make([]parhull.TrapezoidSegment, m)
	for i := range segs {
		segs[i] = parhull.TrapezoidSegment{
			Y:  100*float64(i+1)/float64(m+1) + rng.Float64()*0.5,
			XL: 1 + rng.Float64()*48,
			XR: 51 + rng.Float64()*48,
		}
	}
	return segs, parhull.TrapezoidBox{XL: 0, XR: 100, YB: 0, YT: 100}
}

// appendSpaceEntries merges the space rows into the perf report at -out,
// replacing any previous space rows (and creating the report if the perf
// experiment has not run).
func appendSpaceEntries(entries []perfEntry) {
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
				if !strings.HasPrefix(e.Workload, "space-") {
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
		log.Fatalf("spaces: marshal: %v", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*benchOut, data, 0o644); err != nil {
		log.Fatalf("spaces: write %s: %v", *benchOut, err)
	}
	fmt.Printf("updated %s (%d entries)\n", *benchOut, len(report.Entries))
}

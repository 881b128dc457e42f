// Command hullbench runs the experiments of EXPERIMENTS.md — one per
// theorem/figure of the paper — and prints the measured tables.
//
// Usage:
//
//	hullbench -exp all            # run everything (default sizes)
//	hullbench -exp depth -scale 2 # E1 at 2x the default sizes
//
// Experiments: depth (E1), tail (E2), rounds (E3), work (E4), conflicts
// (E5), figure1 (E6), support (E7), corner (E8), halfspace (E9),
// circles (E9), map (E10), speedup (E11), filter (A1 ablation),
// plane (A2 ablation), perf (machine-readable benchmark export), reuse
// (Builder steady-state allocation gate), delaunay (extension), trapezoid
// (E13, the Section 4 counterexample), spaces (all configuration spaces on
// the fast engine), scale (the 1e7 row; add -huge for the 1e8 row).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"text/tabwriter"
)

var (
	scale = flag.Float64("scale", 1, "scale factor on experiment sizes")
	seeds = flag.Int("seeds", 5, "random repetitions per configuration")
)

type experiment struct {
	name string
	desc string
	run  func()
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("hullbench: ")
	exp := flag.String("exp", "all", "experiment id or 'all'")
	flag.Parse()

	exps := []experiment{
		{"depth", "E1: dependence depth is O(log n) whp (Theorem 1.1/4.2)", expDepth},
		{"tail", "E2: depth tail vs the Theorem 4.2 bound", expTail},
		{"rounds", "E3: recursion depth of Algorithm 3 (Theorem 5.3)", expRounds},
		{"work", "E4: Algorithm 3 does the same facets and plane-side tests as Algorithm 2 (Thm 5.4)", expWork},
		{"conflicts", "E5: total conflict size vs the Clarkson-Shor bound (Theorem 3.1)", expConflicts},
		{"figure1", "E6: the Figure 1 walkthrough (Section 5.3)", expFigure1},
		{"support", "E7: 2-support of the hull configuration space (Theorem 5.1)", expSupport},
		{"corner", "E8: corner configuration space on degenerate 3D inputs (Section 6)", expCorner},
		{"halfspace", "E9a: half-space intersection depth (Section 7)", expHalfspace},
		{"circles", "E9b: unit-circle intersection depth (Section 7)", expCircles},
		{"map", "E10: Algorithm 4 (CAS) vs Algorithm 5 (TAS) ridge maps", expMap},
		{"speedup", "E11: parallel self-speedup of Algorithm 3", expSpeedup},
		{"filter", "A1: ablation — parallel vs serial conflict filtering", expFilter},
		{"plane", "A2: ablation — cached facet hyperplanes vs exact determinants", expPlane},
		{"perf", "PERF: machine-readable ns/op + allocs/op export (BENCH_parhull.json)", expPerf},
		{"reuse", "REUSE: Builder first-build vs steady-state cost + CI allocation gate", expReuse},
		{"delaunay", "EXT: dependence depth of incremental 2D Delaunay", expDelaunay},
		{"trapezoid", "E13: the Section 4 counterexample — no constant support", expTrapezoid},
		{"spaces", "EXT: all configuration spaces on the fast engine (BENCH_parhull.json rows)", expSpaces},
		{"scale", "SCALE: 1e7 (1e8 with -huge) large-n rows (BENCH_parhull.json)", expScale},
	}
	if *exp == "all" {
		for _, e := range exps {
			banner(e)
			e.run()
			fmt.Println()
		}
		return
	}
	for _, e := range exps {
		if e.name == *exp {
			banner(e)
			e.run()
			return
		}
	}
	log.Fatalf("unknown experiment %q (try: all, %s)", *exp, names(exps))
}

func names(exps []experiment) string {
	out := make([]string, len(exps))
	for i, e := range exps {
		out[i] = e.name
	}
	return strings.Join(out, ", ")
}

func banner(e experiment) {
	fmt.Printf("=== %s — %s\n", e.name, e.desc)
}

// table returns a tabwriter printing to stdout; callers Flush it.
func table() *tabwriter.Writer {
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
}

func sz(base int) int {
	v := int(float64(base) * *scale)
	if v < 8 {
		v = 8
	}
	return v
}

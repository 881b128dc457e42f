// Command bench is the repository benchmark. It runs each workload through
// the public parhull.Builder with the documented default options, checks
// every output against an independent reference, and prints every metric
// with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 37, "failed": 0, "metrics": {"build_s_p50": {"value": 0.54, "unit": "s"}, ...}}
//
// Run it from the repository root with bash bench/run.sh, or from this
// directory with go run . (see README.md for the flags and the metrics).
//
// Each workload runs in child processes of its own, one at a time: a verify
// child computes the reference fingerprints and certifies a reduced
// instance, then a measuring child times warm builds (-trace 0) or replays
// the pipeline layer by layer (-trace 1). The reference run's memory and the
// GC state of one workload therefore never reach another's numbers.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// roleEnv names a child's role; the parent sets it when it re-executes
// itself.
const roleEnv = "PARHULL_BENCH_ROLE"

// endToEnd are the metrics a -trace 0 run reports, with the share by which
// each may worsen against the parent commit. BENCHMARK.json carries the same
// table; bench_test.go keeps the two equal.
var endToEnd = []struct {
	name, unit string
	bound      float64
}{
	{"build_s_p50", "s", 0.25},
	{"build_s_p95", "s", 0.25},
	{"setup_s", "s", 0.25},
	{"allocs_per_build", "count", 0.10},
	{"garbage_mb_per_build", "MB", 0.25},
	{"peak_rss_mb", "MB", 0.15},
}

func main() {
	if role := os.Getenv(roleEnv); role != "" {
		os.Exit(child(role, os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type config struct {
	seed           int64
	seconds, scale float64
	trace          int
	traceOut       string
	plant          bool
}

// result is what one run of one workload prints last.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "run one workload (default: all): "+strings.Join(names, ", "))
	var cfg config
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the inputs and of the shuffle")
	fs.Float64Var(&cfg.seconds, "seconds", 15, "measured time per run, in seconds")
	fs.IntVar(&cfg.trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "with -trace 1 and -workload, write the spans as JSON to this path")
	fs.Float64Var(&cfg.scale, "scale", 1, "multiply every workload's point count")
	repeat := fs.Int("repeat", 0, "agreement mode: run the set this many times, then check each end-to-end metric's spread against its bound")
	fs.BoolVar(&cfg.plant, "plant-wrong-ref", false, "corrupt the reference fingerprints, so that every build counts as failed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "unexpected argument %q\n", fs.Arg(0))
		return 2
	case cfg.trace != 0 && cfg.trace != 1:
		fmt.Fprintln(stderr, "-trace must be 0 or 1")
		return 2
	case cfg.seconds <= 0 || cfg.scale <= 0 || *repeat < 0:
		fmt.Fprintln(stderr, "-seconds and -scale must be positive, -repeat not negative")
		return 2
	case cfg.traceOut != "" && (*name == "" || *repeat > 0):
		fmt.Fprintln(stderr, "-trace-out needs -workload and no -repeat")
		return 2
	}
	ws := workloads
	if *name != "" {
		w, err := lookup(*name)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		ws = []workload{w}
	}

	sets := max(*repeat, 1)
	values := map[string]map[string][]float64{} // workload, metric → one value per set
	code := 0
	for s := 0; s < sets; s++ {
		for _, w := range ws {
			res, err := runWorkload(w, cfg, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "%s: %v\n", w.name, err)
				return 1
			}
			printResult(stdout, w, res)
			if !res.Correct {
				code = 1
			}
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			for k, m := range res.Metrics {
				values[w.name][k] = append(values[w.name][k], m.Value)
			}
		}
	}
	if *repeat > 0 && !agree(stdout, ws, values, cfg.seed) {
		code = 1
	}
	return code
}

// runWorkload runs the verify child, then the measuring child, and merges
// their reports.
func runWorkload(w workload, cfg config, stderr io.Writer) (result, error) {
	common := []string{"-workload", w.name, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-scale", strconv.FormatFloat(cfg.scale, 'g', -1, 64)}
	var v verifyOut
	if err := spawn("verify", common, stderr, &v); err != nil {
		return result{}, err
	}
	if v.Problem != "" {
		fmt.Fprintf(stderr, "%s: verification failed: %s\n", w.name, v.Problem)
	}
	refs := slices.Clone(v.Refs)
	if cfg.plant {
		for i, r := range refs {
			fp, err := strconv.ParseUint(r, 16, 64)
			if err != nil {
				return result{}, fmt.Errorf("reference fingerprint %q: %w", r, err)
			}
			refs[i] = formatFP(fp ^ 1)
		}
	}
	role := "time"
	if cfg.trace == 1 {
		role = "trace"
	}
	args := append(slices.Clone(common),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-refs", strings.Join(refs, ","), "-trace-out", cfg.traceOut)
	var c childOut
	if err := spawn(role, args, stderr, &c); err != nil {
		return result{}, err
	}
	if cfg.trace == 1 {
		c.Metrics.set("reference.seq_s", v.SeqS, "s")
	}
	return result{
		Correct:   v.Problem == "" && c.Failed == 0,
		Attempted: c.Attempted,
		Failed:    c.Failed,
		Metrics:   c.Metrics,
	}, nil
}

// spawn re-executes this program in the given role, waits for it, and
// decodes the JSON it prints. The child's diagnostics go to stderr.
func spawn(role string, args []string, stderr io.Writer, out any) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), roleEnv+"="+role)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s child: %w", role, err)
	}
	if err := json.Unmarshal(buf.Bytes(), out); err != nil {
		return fmt.Errorf("%s child output: %w", role, err)
	}
	return nil
}

// child runs one role and prints its report as JSON.
func child(role string, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(role, flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "")
	seed := fs.Int64("seed", 1, "")
	scale := fs.Float64("scale", 1, "")
	seconds := fs.Float64("seconds", 1, "")
	refList := fs.String("refs", "", "")
	traceOut := fs.String("trace-out", "", "")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	out, err := runRole(role, *name, *seed, *scale, *seconds, *refList, *traceOut, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "%s child: %v\n", role, err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(out); err != nil {
		fmt.Fprintf(stderr, "%s child: %v\n", role, err)
		return 1
	}
	return 0
}

func runRole(role, name string, seed int64, scale, seconds float64, refList, traceOut string, stderr io.Writer) (any, error) {
	w, err := lookup(name)
	if err != nil {
		return nil, err
	}
	if role == "verify" {
		return verify(w, seed, scale)
	}
	var refs []uint64
	for _, s := range strings.Split(refList, ",") {
		fp, err := strconv.ParseUint(s, 16, 64)
		if err != nil {
			return nil, fmt.Errorf("-refs: %w", err)
		}
		refs = append(refs, fp)
	}
	if len(refs) != w.clouds {
		return nil, fmt.Errorf("-refs has %d fingerprints, %s has %d clouds", len(refs), w.name, w.clouds)
	}
	switch role {
	case "time":
		return timeRun(w, seed, scale, seconds, refs, stderr)
	case "trace":
		return traceRun(w, seed, scale, seconds, refs, traceOut, stderr)
	}
	return nil, fmt.Errorf("unknown role %q", role)
}

// printResult prints one table line per metric, then the JSON result line.
func printResult(out io.Writer, w workload, r result) {
	verdict := "correct"
	if !r.Correct {
		verdict = "NOT CORRECT"
	}
	fmt.Fprintf(out, "%s: %s, %d builds attempted, %d failed\n", w.name, verdict, r.Attempted, r.Failed)
	keys := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		fmt.Fprintf(out, "  %-30s %14.6g %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
	line, _ := json.Marshal(r) // plain structs and float64 values: cannot fail
	fmt.Fprintf(out, "%s\n", line)
}

// agree prints each end-to-end metric's per-set values and their spread,
// (max - min) / median, and reports whether every spread is within the
// metric's bound.
func agree(out io.Writer, ws []workload, values map[string]map[string][]float64, seed int64) bool {
	ok := true
	fmt.Fprintf(out, "agreement across sets (seed %d): spread = (max - min) / median\n", seed)
	for _, w := range ws {
		for _, e := range endToEnd {
			xs := values[w.name][e.name]
			if len(xs) == 0 {
				continue
			}
			spread := ratio(slices.Max(xs)-slices.Min(xs), median(xs))
			verdict := "ok"
			if spread > e.bound {
				verdict, ok = "DISAGREE", false
			}
			sets := make([]string, len(xs))
			for i, x := range xs {
				sets[i] = strconv.FormatFloat(x, 'g', 5, 64)
			}
			fmt.Fprintf(out, "  %-14s %-20s %-40s spread %5.1f%% bound %3.0f%% %s\n",
				w.name, e.name, strings.Join(sets, " "), 100*spread, 100*e.bound, verdict)
		}
	}
	return ok
}

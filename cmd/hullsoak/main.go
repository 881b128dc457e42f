// Command hullsoak is a deterministic soak driver for the parhull engines.
//
// Every trial is fully determined by a single uint64 seed: the seed picks
// the configuration space, engine schedule, Builder reuse, option set,
// point generator, input size and dimension, fault-injection plan, and
// cancellation deadline. Successful trials are certified by the independent
// exact checkers in internal/certify; failing trials must satisfy the
// public typed-error contract. Any violation is written to a self-contained
// JSON replay file; `hullsoak -replay <file>` reproduces it bit-for-bit and
// then shrinks it to a minimal still-failing configuration.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"parhull/internal/leakcheck"
)

// defaultDeadline is the per-trial watchdog deadline of a soak or replay run.
const defaultDeadline = 30 * time.Second

func main() {
	var (
		trials    = flag.Int("trials", 200, "number of soak trials to run")
		seed      = flag.Uint64("seed", 1, "root seed; trial i uses splitmix64(seed, i)")
		deadline  = flag.Duration("deadline", defaultDeadline, "per-trial watchdog deadline")
		replay    = flag.String("replay", "", "replay (and shrink) a recorded violation instead of soaking")
		out       = flag.String("out", "hullsoak-violation.json", "replay file written on the first violation")
		verbose   = flag.Bool("v", false, "print a summary line for every trial")
		keepGoing = flag.Bool("keep-going", false, "continue after a violation (only the first writes a replay file)")
	)
	flag.Parse()

	if *replay != "" {
		os.Exit(runReplay(*replay, *deadline))
	}
	os.Exit(runSoak(*trials, *seed, *deadline, *out, *verbose, *keepGoing))
}

func runSoak(trials int, seed uint64, deadline time.Duration, outPath string, verbose, keepGoing bool) int {
	fmt.Printf("hullsoak: %d trials, seed %d, deadline %v\n", trials, seed, deadline)
	base := leakcheck.Snapshot()
	var (
		ok, failedOK, violations int
		bySpace                  = map[string]int{}
		wroteReplay              bool
	)
	start := time.Now()
	for i := 0; i < trials; i++ {
		sp := deriveTrial(trialSeed(seed, i))
		o := RunTrial(sp, deadline)
		bySpace[sp.Space]++

		if o.Violation == "" {
			if leaked, dump := leakcheck.Settle(base); leaked > 0 {
				if strings.Contains(dump, "parhull") {
					o.Violation = fmt.Sprintf("%d goroutines leaked after trial:\n%s", leaked, dump)
				} else {
					// Runtime/testing goroutines we do not own; move the baseline.
					base = leakcheck.Snapshot()
				}
			}
		}

		switch {
		case o.Violation != "":
			violations++
			fmt.Printf("VIOLATION trial %d: %s\n  spec: %s\n  %s\n", i, o.Violation, sp, o.Summary())
			if !wroteReplay {
				if err := writeReplay(outPath, o); err != nil {
					fmt.Fprintf(os.Stderr, "hullsoak: writing replay file: %v\n", err)
				} else {
					fmt.Printf("  replay file: %s (rerun with: hullsoak -replay %s)\n", outPath, outPath)
					wroteReplay = true
				}
			}
			if !keepGoing {
				return 1
			}
		case o.Err != "":
			failedOK++
			if verbose {
				fmt.Printf("trial %4d %s\n", i, o.Summary())
			}
		default:
			ok++
			if verbose {
				fmt.Printf("trial %4d %s\n", i, o.Summary())
			}
		}
	}
	fmt.Printf("hullsoak: %d trials in %v: %d certified, %d failed-as-contracted, %d violations\n",
		trials, time.Since(start).Round(time.Millisecond), ok, failedOK, violations)
	order := []string{"hulld", "hull2d", "delaunay", "halfspace", "circles", "trapezoid", "corner"}
	var parts []string
	for _, s := range order {
		if bySpace[s] > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", s, bySpace[s]))
		}
	}
	fmt.Printf("hullsoak: space mix: %s\n", strings.Join(parts, " "))
	if violations > 0 {
		return 1
	}
	return 0
}

func runReplay(path string, deadline time.Duration) int {
	rf, err := readReplay(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hullsoak: reading replay file: %v\n", err)
		return 2
	}
	fmt.Printf("hullsoak: replaying %s\n  spec: %s\n  recorded: %s\n", path, rf.Spec, rf.Violation)
	o, reproduced := Reproduce(rf, deadline)
	if !reproduced {
		if o.Violation == "" {
			fmt.Printf("NOT REPRODUCED: trial passed on replay (%s)\n", o.Summary())
		} else {
			fmt.Printf("DIVERGED: trial failed differently on replay\n  recorded fingerprint: %s\n  replay fingerprint:   %s\n  replay violation: %s\n",
				rf.Fingerprint, o.Fingerprint, o.Violation)
		}
		return 1
	}
	if o.Violation == rf.Violation && o.Fingerprint == rf.Fingerprint {
		fmt.Printf("reproduced bit-for-bit: %s\n", o.Violation)
	} else {
		// The trial input is seed-determined either way, but a fault that
		// corrupts mid-construction state can surface a schedule-dependent
		// internal error message.
		fmt.Printf("reproduced (same failure, schedule-dependent detail): %s\n", o.Violation)
	}

	min := Shrink(rf.Spec, deadline, func(msg string) { fmt.Println("  " + msg) })
	if min == rf.Spec {
		fmt.Println("hullsoak: spec is already minimal")
		return 0
	}
	minOut := RunTrial(min, deadline)
	minPath := strings.TrimSuffix(path, ".json") + ".min.json"
	if err := writeReplay(minPath, minOut); err != nil {
		fmt.Fprintf(os.Stderr, "hullsoak: writing shrunk replay file: %v\n", err)
		return 2
	}
	fmt.Printf("shrunk: n %d -> %d; minimal spec: %s\n  minimal replay file: %s\n", rf.Spec.N, min.N, min, minPath)
	return 0
}

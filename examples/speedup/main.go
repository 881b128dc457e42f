// Speedup: measures the parallel self-speedup of Algorithm 3 over a range
// of GOMAXPROCS values, on the all-points-on-hull 2D workload (experiment
// E11). On a single-core machine this prints a flat curve — the structural
// parallelism (rounds, depth) is still reported and is machine-independent.
package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	"parhull"
)

func main() {
	const n = 200_000
	pts := parhull.RandomSpherePoints(n, 2, 13)
	opt := &parhull.Options{Shuffle: true, Seed: 5}

	// Structural parallelism first: rounds and depth do not depend on the
	// machine.
	meta, err := parhull.Hull2D(pts, &parhull.Options{
		Engine: parhull.EngineRounds, Shuffle: true, Seed: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("n = %d on-circle points: depth %d, rounds %d (both O(log n))\n",
		n, meta.Stats.MaxDepth, meta.Stats.Rounds)

	maxP := runtime.NumCPU()
	fmt.Printf("%-6s %-12s %-8s\n", "P", "time", "speedup")
	var t1 time.Duration
	for p := 1; p <= maxP; p *= 2 {
		runtime.GOMAXPROCS(p)
		best := time.Duration(0)
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			if _, err := parhull.Hull2D(pts, opt); err != nil {
				log.Fatal(err)
			}
			el := time.Since(start)
			if best == 0 || el < best {
				best = el
			}
		}
		if p == 1 {
			t1 = best
		}
		fmt.Printf("%-6d %-12v %.2fx\n", p, best.Round(time.Microsecond), float64(t1)/float64(best))
	}
	runtime.GOMAXPROCS(maxP)
}

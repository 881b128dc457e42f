package main

import (
	"math/rand"
	"runtime"
	"sync"
	"time"
)

// Machine speed on a shared host drifts by 10-20% over tens of seconds,
// alike for every CPU-bound code path, so raw wall times of runs made a
// minute apart disagree by more than any useful regression bound. Each
// measuring process therefore runs a fixed compute kernel after every
// build and scales every time it reports by calNominal / median(kernel
// time): a reported second is a second on a machine where the kernel takes
// calNominal. On the reference box (README.md) this cut the spread
// (IQR/median) of 15- to 20-second medians of build time from 21% to 2.5%
// on 1e5 ball clouds and from 11% to 4% on the 1e5 sphere. Kernels that
// stream or chase pointers through 32 MB tracked the drift less well. The
// kernel is the benchmark's own code, so no library change moves it.

// calNominal is the kernel's median time on the reference box.
const calNominal = 3.2e-3

// calReps sets the kernel's length: about 3 ms.
const calReps = 14

// calData is the kernel's fixed input, 512 KiB read by every worker.
var calData = func() []float64 {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1<<16)
	for i := range xs {
		xs[i] = rng.Float64() - 0.5
	}
	return xs
}()

var calSink float64

// calKernel evaluates 3x3 determinants, the orientation predicate's
// arithmetic, over calData on GOMAXPROCS goroutines and returns its wall
// time in seconds.
func calKernel() float64 {
	out := make([]float64, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := 0.0
			for r := 0; r < calReps; r++ {
				for i := 0; i+9 <= len(calData); i += 3 {
					a := calData[i : i+9 : i+9]
					d := a[0]*(a[4]*a[8]-a[5]*a[7]) - a[1]*(a[3]*a[8]-a[5]*a[6]) + a[2]*(a[3]*a[7]-a[4]*a[6])
					if d > 0 {
						s += d
					} else {
						s -= d / 2
					}
				}
			}
			out[w] = s
		}()
	}
	wg.Wait()
	dt := time.Since(t0).Seconds()
	for _, s := range out {
		calSink += s
	}
	return dt
}

// calibrator collects kernel times interleaved with a phase's builds.
type calibrator struct{ samples []float64 }

func (c *calibrator) sample() { c.samples = append(c.samples, calKernel()) }

// scale maps the phase's wall seconds to nominal seconds.
func (c *calibrator) scale() float64 { return calNominal / median(c.samples) }

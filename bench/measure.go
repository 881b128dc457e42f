package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"parhull"
)

// Before the timed loop a run makes at least minCold one-shot builds
// (NewBuilder + first Build + Close), and more while they have taken less
// than coldShare of -seconds, so that fast workloads get a steady median.
const (
	minCold   = 5
	coldShare = 0.1
)

// minTimed is the fewest timed builds a run makes, however short -seconds is.
const minTimed = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// scaleTimes multiplies every time metric by f (see calibrate.go).
func (m metrics) scaleTimes(f float64) {
	for k, v := range m {
		if v.Unit == "s" || v.Unit == "ms" {
			m[k] = metric{v.Value * f, v.Unit}
		}
	}
}

// childOut is what a measuring child reports.
type childOut struct {
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// checker compares build outputs with the reference fingerprints and counts
// attempts and failures: an error and a wrong fingerprint both fail.
type checker struct {
	refs      []uint64
	fp        fingerprinter
	attempted int
	failed    int
}

func (c *checker) check(cloud int, h hull, err error) {
	c.attempted++
	if err != nil || c.fp.of(h) != c.refs[cloud] {
		c.failed++
	}
}

// timeRun measures the end-to-end metrics: set-up time and peak memory of
// cold one-shot builds, then a closed loop of warm builds on one Builder for
// at least seconds, one caller goroutine, cycling through the workload's
// clouds and a new shuffle seed per build.
func timeRun(w workload, seed int64, scale, seconds float64, refs []uint64, stderr io.Writer) (childOut, error) {
	inputs := w.inputs(seed, scale)
	c := &checker{refs: refs}

	// Each cold build starts from a heap returned to the OS, so its peak
	// RSS is what a one-shot call in a fresh process needs. The peak of
	// one build depends on where the GC happened to run; the median of
	// several repeats.
	var setup, peaks []float64
	coldLimit := time.Duration(coldShare * seconds * float64(time.Second))
	coldStart := time.Now()
	for i := 0; i < minCold || time.Since(coldStart) < coldLimit; i++ {
		k := i % len(inputs)
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return childOut{}, err
		}
		t0 := time.Now()
		b := parhull.NewBuilder(options(shuffleSeed(seed, -1-i)))
		h, err := w.build(b, inputs[k])
		b.Close()
		setup = append(setup, time.Since(t0).Seconds())
		rss, rerr := peakRSSMB()
		if rerr != nil {
			return childOut{}, rerr
		}
		peaks = append(peaks, rss)
		c.check(k, h, err)
	}

	opt := options(shuffleSeed(seed, 0))
	b := parhull.NewBuilder(opt)
	defer b.Close()
	h, err := w.build(b, inputs[0]) // warm-up, untimed
	c.check(0, h, err)

	// Garbage is what the timed builds allocated minus what stayed live,
	// read from collected heaps on both sides of the loop. A build that
	// grows one of the Builder's retained buffers to a new high-water mark
	// allocates tens of MB more, once; on the boundary-heavy workloads new
	// shuffles keep doing so, which moves the plain allocated bytes by 25%
	// from run to run but leaves the garbage steady.
	//
	// The calibration kernel runs in the timed loop only, and its scale
	// serves the cold builds too: run right after the OS takes back a cold
	// build's heap, the kernel was up to twice as slow as the builds around
	// it.
	var builds []float64
	var mem memDelta
	var cal calibrator
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	limit := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	for i := 1; len(builds) < minTimed || time.Since(start) < limit; i++ {
		k := i % len(inputs)
		opt.Seed = shuffleSeed(seed, i)
		mem.begin()
		t0 := time.Now()
		h, err := w.build(b, inputs[k])
		dt := time.Since(t0)
		mem.end()
		builds = append(builds, dt.Seconds())
		c.check(k, h, err)
		cal.sample()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	garbage := float64(after.TotalAlloc-before.TotalAlloc) - (float64(after.HeapAlloc) - float64(before.HeapAlloc))

	m := metrics{}
	m.set("build_s_p50", median(builds), "s")
	m.set("build_s_p95", percentile(builds, 95), "s")
	m.set("setup_s", median(setup), "s")
	m.set("allocs_per_build", median(mem.mallocs), "count")
	m.set("garbage_mb_per_build", garbage/float64(len(builds))/1e6, "MB")
	m.set("peak_rss_mb", median(peaks), "MB")
	m.scaleTimes(cal.scale())
	fmt.Fprintf(stderr, "%s: %d timed builds, %d cold builds, GOMAXPROCS=%d, times scaled by %.3f\n",
		w.name, len(builds), len(setup), runtime.GOMAXPROCS(0), cal.scale())
	return childOut{Attempted: c.attempted, Failed: c.failed, Metrics: m}, nil
}

// resetPeakRSS restarts the kernel's peak-RSS mark at the current RSS
// (Linux: 5 written to /proc/self/clear_refs).
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads the peak-RSS mark (VmHWM in /proc/self/status, KiB).
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kib float64
			if _, err := fmt.Sscanf(rest, "%f kB", &kib); err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kib * 1024 / 1e6, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile is the nearest-rank p-th percentile of xs (0 for no samples).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	r := int(math.Ceil(p / 100 * float64(len(s))))
	return s[max(r, 1)-1]
}

// memDelta brackets calls with MemStats reads: allocation counts and bytes
// per call, and GC cycles and pause time in total.
type memDelta struct {
	mallocs, bytes []float64
	gcs            uint32
	pauseNs        uint64
	m0, m1         runtime.MemStats
}

func (g *memDelta) begin() { runtime.ReadMemStats(&g.m0) }

func (g *memDelta) end() {
	runtime.ReadMemStats(&g.m1)
	g.mallocs = append(g.mallocs, float64(g.m1.Mallocs-g.m0.Mallocs))
	g.bytes = append(g.bytes, float64(g.m1.TotalAlloc-g.m0.TotalAlloc))
	g.gcs += g.m1.NumGC - g.m0.NumGC
	g.pauseNs += g.m1.PauseTotalNs - g.m0.PauseTotalNs
}

// perCall divides a total by the number of bracketed calls.
func (g *memDelta) perCall(total float64) float64 {
	if len(g.mallocs) == 0 {
		return 0
	}
	return total / float64(len(g.mallocs))
}

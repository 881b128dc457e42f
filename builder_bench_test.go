package parhull

import (
	"testing"
)

// BenchmarkBuilderSteadyState measures the steady-state cost of a reused
// Builder on the headline perf workload (3d-ball-100k, direct path) — the
// allocs/op here is the number the CI reuse gate bounds. The first Build
// (pool construction, high-water growth) runs outside the timer.
func BenchmarkBuilderSteadyState(b *testing.B) {
	pts := RandomPoints(100_000, 3, 42)
	bld := NewBuilder(&Options{PreHull: PreHullOff})
	defer bld.Close()
	if _, err := bld.Build(pts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bld.Build(pts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuilderSteadyStateDefault is BenchmarkBuilderSteadyState under the
// default options a caller is told to use (Shuffle on, PreHullAuto): the
// steady state then also covers the pre-hull probe, cull, and block
// sub-hulls, which the CI reuse gate bounds separately.
func BenchmarkBuilderSteadyStateDefault(b *testing.B) {
	pts := RandomPoints(100_000, 3, 42)
	bld := NewBuilder(&Options{Shuffle: true, Seed: 1})
	defer bld.Close()
	if _, err := bld.Build(pts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bld.Build(pts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHullDOneShot is the same workload through the one-shot entry
// point, for the first-build-vs-steady-state comparison in EXPERIMENTS.md.
func BenchmarkHullDOneShot(b *testing.B) {
	pts := RandomPoints(100_000, 3, 42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := HullD(pts, &Options{PreHull: PreHullOff}); err != nil {
			b.Fatal(err)
		}
	}
}

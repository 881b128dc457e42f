package main

import (
	"fmt"
	"math/rand"

	"parhull"
	"parhull/internal/geom"
	"parhull/internal/pointgen"
)

// workload is one input family. Each puts a different layer on the critical
// path of a build; README.md records why each was chosen.
type workload struct {
	name   string
	dim    int
	n      int // points per cloud at -scale 1
	clouds int // distinct clouds the timed loop cycles through
	// certN is the size of the certified instance: certify.Hull costs
	// O(n·F), about 100 s at 1e6 points, so certification runs on a
	// smaller draw from the same generator and seed.
	certN int
	gen   func(rng *rand.Rand, n int) []geom.Point
}

var workloads = []workload{
	{"ball3d-1m", 3, 1_000_000, 1, 20_000, ball3},
	{"sphere3d-100k", 3, 100_000, 1, 5_000, sphere3},
	{"circle2d-500k", 2, 500_000, 1, 10_000, pointgen.OnCircle},
	{"stream3d-100k", 3, 100_000, 8, 20_000, ball3},
}

func ball3(rng *rand.Rand, n int) []geom.Point   { return pointgen.UniformBall(rng, n, 3) }
func sphere3(rng *rand.Rand, n int) []geom.Point { return pointgen.OnSphere(rng, n, 3) }

func lookup(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// scaled is n·scale, floored so that a smoke-test scale still builds hulls.
func scaled(n int, scale float64) int {
	return max(int(float64(n)*scale), 100)
}

// inputs draws the workload's clouds from seed. Generation is never timed.
func (w workload) inputs(seed int64, scale float64) [][]geom.Point {
	rng := pointgen.NewRNG(seed)
	out := make([][]geom.Point, w.clouds)
	for i := range out {
		out[i] = w.gen(rng, scaled(w.n, scale))
	}
	return out
}

// certInput is the reduced-n instance that is certified from scratch.
func (w workload) certInput(seed int64, scale float64) []geom.Point {
	return w.gen(pointgen.NewRNG(seed), min(scaled(w.certN, scale), scaled(w.n, scale)))
}

// options are the documented defaults a caller passes: shuffle on, every
// other field zero (parallel engine, PreHullAuto, Workers = GOMAXPROCS).
func options(seed int64) *parhull.Options {
	return &parhull.Options{Shuffle: true, Seed: seed}
}

// shuffleSeed is the Options.Seed of build i. Every build shuffles anew, so
// a run's medians average over the algorithm's own randomness (such as the
// pre-hull's sample) instead of resting on one draw of it. The hull, and so
// the fingerprint, is the same under every shuffle.
func shuffleSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

// refOptions select Algorithm 2 with no pre-hull and no batch filter: the
// plain sequential construction every other build is checked against.
func refOptions(seed int64) *parhull.Options {
	return &parhull.Options{Engine: parhull.EngineSequential, PreHull: parhull.PreHullOff, Shuffle: true, Seed: seed}
}

// hull is the part of a build's result the benchmark checks.
type hull struct {
	facets   []parhull.Facet // nil in 2D
	vertices []int           // sorted indices; the CCW cycle in 2D
	stats    parhull.Stats
}

// build runs one Build (Build2D in 2D) on b.
func (w workload) build(b *parhull.Builder, pts []geom.Point) (hull, error) {
	if w.dim == 2 {
		r, err := b.Build2D(pts)
		if err != nil {
			return hull{}, err
		}
		return hull{vertices: r.Vertices, stats: r.Stats}, nil
	}
	r, err := b.Build(pts)
	if err != nil {
		return hull{}, err
	}
	return hull{facets: r.Facets, vertices: r.Vertices, stats: r.Stats}, nil
}

// Package parhull is a Go implementation of the parallel randomized
// incremental convex hull algorithm of Blelloch, Gu, Shun, and Sun,
// "Randomized Incremental Convex Hull is Highly Parallel" (SPAA 2020),
// together with the substrates and companion problems the paper describes:
// the sequential incremental baseline (Algorithm 2), the parallel variant
// with its two ridge-map protocols (Algorithms 3-5), the configuration-
// space/support-set framework (Sections 3-4), corner configurations for
// degenerate 3D inputs (Section 6), and half-space and unit-circle
// intersection (Section 7).
//
// The headline guarantee is structural: inserting points in random order,
// the configuration dependence graph — facet t depends only on the two
// facets that support it — has depth O(log n) with high probability
// (Theorem 1.1), so the parallel engine performs exactly the same facet
// creations and plane-side tests as the sequential one, just scheduled
// by dependence rather than by insertion index. Every Result carries the
// instrumentation (visibility tests, dependence depth, rounds) used by the
// experiments in EXPERIMENTS.md.
//
// Quick start:
//
//	pts := parhull.RandomPoints(10000, 2, 42)          // or your own points
//	res, err := parhull.Hull2D(pts, &parhull.Options{Shuffle: true, Seed: 1})
//	// res.Vertices: CCW hull indices; res.Stats.MaxDepth: dependence depth
//
// All coordinates are float64; every branching predicate is evaluated
// exactly (float filter + rational fallback), so results are independent of
// scheduling and of floating-point luck. Inputs to the Section 5 engines
// must be in general position — see the README for what that means and how
// the Section 6 API relaxes it in 3D.
package parhull

import (
	"context"
	"errors"

	"parhull/internal/conmap"
	"parhull/internal/faultinject"
	"parhull/internal/geom"
	"parhull/internal/hullstats"
	"parhull/internal/pointgen"
	"parhull/internal/prehull"
)

// Point is a point in R^d (d = len(p)).
type Point = geom.Point

// Stats carries the instrumentation of one construction: plane-side test
// counts, facet life-cycle counts, dependence depth (Theorem 1.1), and
// rounds (Theorem 5.3, rounds engine only).
type Stats = hullstats.Stats

// Engine selects the construction schedule.
type Engine int

const (
	// EngineParallel is Algorithm 3 under the asynchronous fork-join
	// schedule (the binary-forking model of Theorem 5.5). Default.
	EngineParallel Engine = iota
	// EngineSequential is Algorithm 2, the classic sequential randomized
	// incremental construction.
	EngineSequential
	// EngineRounds is Algorithm 3 under the round-synchronous schedule of
	// Theorem 5.4; Stats.Rounds reports the recursion depth of Theorem 5.3.
	EngineRounds
)

// MapKind selects the concurrent ridge multimap M of Algorithm 3.
type MapKind int

const (
	// MapSharded is the production default: a growable table of
	// mutex-guarded linear-probing shards that holds only the ridges
	// waiting for their second facet, or in 2D, where a ridge is a single
	// vertex, an array of CAS slots indexed by vertex.
	MapSharded MapKind = iota
	// MapCAS is the paper's Algorithm 4: linear probing + CompareAndSwap.
	MapCAS
	// MapTAS is the paper's Algorithm 5: the TestAndSet-only protocol.
	MapTAS
)

// PreHullMode controls the divide-and-conquer input reduction that runs
// before the main construction: the input is split into blocks, each block's
// hull is computed serially (blocks in parallel), and only the block-hull
// vertices reach the selected engine. A point interior to its block's hull
// cannot be a hull vertex, so the final facets are exactly those of a direct
// run — the reduction changes the work, never the output (asserted across
// engines by the equivalence tests). See internal/prehull and DESIGN.md §4.4.
type PreHullMode int

const (
	// PreHullAuto (default) enables the reduction for large interior-heavy
	// inputs: a serial hull over a small prefix sample estimates the hull
	// density, and the reduction runs only when the sample is mostly
	// interior (uniform-ball-like). Boundary-heavy inputs (points on a
	// sphere) skip it — there is nothing to discard.
	PreHullAuto PreHullMode = iota
	// PreHullOn always attempts the reduction (inputs too small to block up
	// still run direct).
	PreHullOn
	// PreHullOff never reduces; every point goes straight to the engine.
	// This is the ablation baseline of the E11 experiment.
	PreHullOff
)

// Options configures a construction. The zero value is a good default:
// parallel engine, sharded map, no shuffle. Every construction counts its
// work into Stats.
type Options struct {
	// Engine selects the schedule (default EngineParallel).
	Engine Engine
	// Map selects the ridge multimap (default MapSharded). The fixed-size
	// CAS/TAS maps are sized automatically from the input unless
	// MapCapacity is set.
	Map MapKind
	// MapCapacity overrides the expected ridge count for MapCAS/MapTAS.
	MapCapacity int
	// Shuffle inserts the points in a uniformly random order derived from
	// Seed instead of the given order. The O(log n) depth guarantee of
	// Theorem 1.1 is over this randomness; leave it off only if the input
	// order is already random. Reported indices always refer to the
	// original slice.
	Shuffle bool
	// Seed drives Shuffle (same seed, same order).
	Seed int64
	// FilterGrain sets the conflict-list size above which conflict filtering
	// runs in parallel chunks (0 = default; a very large value forces the
	// serial path — the A1 ablation). The hull output and the multiset of
	// plane-side tests are identical either way; only the span changes.
	FilterGrain int
	// Context, when non-nil, cancels the construction cooperatively: the
	// engines check it at ridge-chain granularity and the call returns
	// ErrCanceled (wrapping ctx.Err()) promptly, with every worker
	// goroutine quiesced before the return.
	Context context.Context
	// Workers pins the width of the work-stealing pools: the pre-hull block
	// loop and the executor that EngineParallel and EngineRounds run on
	// (<= 0 selects GOMAXPROCS). The hull output, and under EngineRounds
	// Stats.Rounds and RoundWidths, are identical for any width (Theorem
	// 5.5) — only the schedule changes. The speedup harness in
	// cmd/hullbench sets it alongside runtime.GOMAXPROCS to measure scaling
	// curves that do not depend on the ambient process configuration.
	Workers int
	// PreHull selects the pre-hull reduction mode (default PreHullAuto).
	PreHull PreHullMode
	// NoMapFallback disables the capacity degradation ladder for
	// MapCAS/MapTAS: a fixed table that fills surfaces ErrCapacity instead
	// of retrying with a doubled table and finally falling back to
	// MapSharded. Leave it off in production; tests use it to pin the
	// typed-error contract.
	NoMapFallback bool

	// inject arms deterministic fault injection across every instrumented
	// layer (engines, ridge maps, pre-hull, Builder rewind, space rounds).
	// Settable only through SetFaultInjector; nil in production.
	inject *faultinject.Injector
}

// SetFaultInjector arms o with a deterministic fault-injection schedule for
// the robustness test rigs (internal/faultinject; see cmd/hullsoak). The
// injector type lives in an internal package, so outside this module the
// method is only callable with nil — production code cannot arm faults.
func (o *Options) SetFaultInjector(inj *faultinject.Injector) { o.inject = inj }

func (o *Options) or() *Options {
	if o == nil {
		return &Options{}
	}
	return o
}

// capacity applies the MapCapacity override to a default sizing rule.
func (o *Options) capacity(def int) int {
	if o.MapCapacity != 0 {
		return o.MapCapacity
	}
	return def
}

// ladderRetries is how many doubled-table restarts the degradation ladder
// attempts after a capacity failure before abandoning the fixed table.
const ladderRetries = 2

// ladder is the capacity degradation ladder of the public layer: the
// sequential engine has no ridge table and runs directly, as does
// MapSharded (it grows, it cannot fill); MapCAS/MapTAS run on the fixed
// table, and a conmap.ErrCapacity failure restarts the whole construction —
// the engines abort cleanly, so a restart is the only sound recovery — on a
// table twice the size, up to ladderRetries times, before falling back to
// the sharded map (unless Options.NoMapFallback). Any error other than
// capacity exhaustion surfaces immediately.
func ladder[V comparable, R any](o *Options, fixedCap int,
	mkFixed func(c int) conmap.RidgeMap[V],
	mkSharded func() conmap.RidgeMap[V],
	run func(conmap.RidgeMap[V]) (R, error)) (res R, retries int, fellBack bool, err error) {

	if o.Engine == EngineSequential {
		res, err = run(nil)
		return res, 0, false, err
	}
	if o.Map != MapCAS && o.Map != MapTAS {
		res, err = run(mkSharded())
		return res, 0, false, err
	}
	c := fixedCap
	for attempt := 0; ; attempt++ {
		res, err = run(mkFixed(c))
		if err == nil || !errors.Is(err, conmap.ErrCapacity) || attempt == ladderRetries {
			break
		}
		retries++
		c *= 2
	}
	if err != nil && errors.Is(err, conmap.ErrCapacity) && !o.NoMapFallback {
		res, err = run(mkSharded())
		return res, retries, true, err
	}
	return res, retries, false, err
}

// RandomPoints returns n points of dimension d drawn uniformly from the
// unit ball, deterministically from seed — a convenient general-position
// test input.
func RandomPoints(n, d int, seed int64) []Point {
	return pointgen.UniformBall(pointgen.NewRNG(seed), n, d)
}

// RandomSpherePoints returns n points uniformly on the unit (d-1)-sphere —
// the adversarial input where every point is a hull vertex.
func RandomSpherePoints(n, d int, seed int64) []Point {
	return pointgen.OnSphere(pointgen.NewRNG(seed), n, d)
}

func mapBack(idx int32, order []int) int {
	if order == nil {
		return int(idx)
	}
	return order[idx]
}

// Auto-mode pre-hull thresholds: below preHullMinN the block sub-hulls
// cannot pay for themselves; the probe runs a serial hull over the first
// preHullSample points of the working order and enables the reduction only
// when at most 1/preHullDense of the sample survives (interior-heavy input).
const (
	preHullMinN   = 16384
	preHullSample = 1024
	preHullDense  = 4
)

// preHullWorthIt is the PreHullAuto probe, run on the pre-hull's retained
// sequential state s. The sample is a prefix of the working order, so with
// Shuffle on (or an already-random input) it is a uniform sample; a sorted
// unshuffled input can fool it, in which case the reduction is merely
// skipped or wasted — never wrong.
func (o *Options) preHullWorthIt(work []Point, s *prehull.Scratch) bool {
	if len(work) < preHullMinN {
		return false
	}
	verts, err := prehull.HullVertexCount(work[:preHullSample], prehull.Config{
		Ctx:     o.Context,
		Scratch: s,
	})
	if err != nil {
		return false // degenerate or canceled sample: run direct
	}
	return verts <= preHullSample/preHullDense
}

// Command hullsoak is the standing reliability harness: a seeded soak
// driver over the full configuration-space x schedule x options x fault
// matrix, with independent exact certification of every successful result
// (internal/certify), typed-error contract checks on every failure, leak
// checking between trials, and self-contained JSON replay files that
// reproduce any violation bit-for-bit and auto-shrink it to a minimal
// failing trial.
//
// One uint64 seed fully determines a trial: the sampled space, engine,
// input generator, sizes, option toggles, fault-injection plan, and
// cancellation deadline are all derived from it by a splitmix64 stream, so
// `hullsoak -replay file.json` (or just re-running with the same seed) is
// exact reproduction, not best-effort.
package main

import (
	"fmt"
	"math"
	"slices"

	"parhull"
	"parhull/internal/faultinject"
	"parhull/internal/pointgen"
)

// FaultPlan arms one deterministic fault (internal/faultinject) for a trial.
type FaultPlan struct {
	// Site is the faultinject.Site ordinal.
	Site int `json:"site"`
	// Mode is "panic", "fail" (forced capacity failure at sites that
	// consult Fail), or "delay" (scheduling jitter).
	Mode string `json:"mode"`
	// Visit is the 1-based visit count at which a panic/fail fires.
	Visit int64 `json:"visit,omitempty"`
	// Every / MaxDelayUS shape delay mode: every Every-th visit sleeps up
	// to MaxDelayUS microseconds.
	Every      int64 `json:"every,omitempty"`
	MaxDelayUS int64 `json:"maxDelayUs,omitempty"`
}

// TrialSpec is one fully-determined soak trial. The JSON form is the
// replay file payload: everything needed to reproduce the trial is here.
type TrialSpec struct {
	Seed          uint64     `json:"seed"`
	Space         string     `json:"space"`
	Engine        string     `json:"engine,omitempty"`
	Reuse         bool       `json:"reuse,omitempty"`
	N             int        `json:"n"`
	D             int        `json:"d,omitempty"`
	Gen           string     `json:"gen"`
	GenSeed       int64      `json:"genSeed"`
	Shuffle       bool       `json:"shuffle,omitempty"`
	ShuffleSeed   int64      `json:"shuffleSeed,omitempty"`
	PreHull       string     `json:"preHull,omitempty"` // "" auto, "on", "off"
	FilterGrain   int        `json:"filterGrain,omitempty"`
	MapMode       string     `json:"mapMode,omitempty"` // "" sharded, "cas", "tas"
	Workers       int        `json:"workers,omitempty"`
	CancelAfterUS int64      `json:"cancelAfterUs,omitempty"`
	Fault         *FaultPlan `json:"fault,omitempty"`
}

func (sp TrialSpec) String() string {
	s := fmt.Sprintf("seed=%#x space=%s", sp.Seed, sp.Space)
	if sp.D > 0 {
		s += fmt.Sprintf("/%d", sp.D)
	}
	s += fmt.Sprintf(" n=%d gen=%s", sp.N, sp.Gen)
	if sp.Engine != "" {
		s += " engine=" + sp.Engine
	}
	if sp.Reuse {
		s += " reuse"
	}
	if sp.MapMode != "" {
		s += " map=" + sp.MapMode
	}
	if sp.Fault != nil {
		s += fmt.Sprintf(" fault=%s@%s", sp.Fault.Mode, faultinject.Site(sp.Fault.Site))
	}
	if sp.CancelAfterUS > 0 {
		s += fmt.Sprintf(" cancel=%dus", sp.CancelAfterUS)
	}
	return s
}

// trng is the splitmix64 stream that turns one uint64 seed into a trial.
type trng struct{ s uint64 }

func (r *trng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *trng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *trng) rangeInt(lo, hi int) int { return lo + r.intn(hi-lo+1) }

func (r *trng) pct(p int) bool { return r.intn(100) < p }

// pick returns one of choices with the paired cumulative weights.
func (r *trng) pick(choices []string, weights []int) string {
	total := 0
	for _, w := range weights {
		total += w
	}
	x := r.intn(total)
	for i, w := range weights {
		if x < w {
			return choices[i]
		}
		x -= w
	}
	return choices[len(choices)-1]
}

// spaceEngines lists the engine names each space's trials carry ("" for the
// spaces with a single engine).
var spaceEngines = map[string][]string{
	"hulld":     {"par-steal", "seq", "rounds"},
	"hull2d":    {"par-steal", "seq", "rounds"},
	"delaunay":  {"par-steal", "seq", "rounds"},
	"halfspace": {"dual", "direct"},
	"circles":   {""},
	"trapezoid": {""},
	"corner":    {""},
}

// validate rejects a spec no trial can carry: an unknown space, or an engine
// name its space does not run — such as one a removed configuration axis
// used to select. Replays check it, so an old replay file fails loudly
// instead of silently running a different configuration.
func (sp TrialSpec) validate() error {
	names, ok := spaceEngines[sp.Space]
	if !ok {
		return fmt.Errorf("unknown space %q", sp.Space)
	}
	if !slices.Contains(names, sp.Engine) {
		return fmt.Errorf("space %s has no engine %q (want one of %q)", sp.Space, sp.Engine, names)
	}
	return nil
}

// trialSeed derives the i-th trial seed from the root seed.
func trialSeed(root uint64, i int) uint64 {
	r := trng{s: root ^ (uint64(i)+1)*0xd1342543de82ef95}
	return r.next()
}

// deriveTrial expands one uint64 seed into a full trial specification.
// Same seed, same spec — the replay contract rests on this being pure.
func deriveTrial(seed uint64) TrialSpec {
	r := trng{s: seed}
	sp := TrialSpec{Seed: seed}
	sp.Space = r.pick(
		[]string{"hulld", "hull2d", "delaunay", "halfspace", "circles", "trapezoid", "corner"},
		[]int{28, 22, 14, 12, 8, 10, 6})
	sp.GenSeed = int64(r.next() >> 1)
	sp.ShuffleSeed = int64(r.next() >> 1)
	sp.Shuffle = r.pct(75)

	switch sp.Space {
	case "hulld":
		sp.D = int(r.pick([]string{"3", "4", "5", "6"}, []int{55, 25, 12, 8})[0] - '0')
		switch sp.D {
		case 3:
			sp.N = r.rangeInt(8, 1200)
		case 4:
			sp.N = r.rangeInt(10, 400)
		case 5:
			sp.N = r.rangeInt(12, 160)
		default:
			sp.N = r.rangeInt(14, 80)
		}
		sp.Gen = r.pickPointGen(sp.D)
		sp.Engine = r.pick(spaceEngines[sp.Space], []int{60, 25, 15})
	case "hull2d":
		sp.D = 2
		sp.N = r.rangeInt(4, 4000)
		sp.Gen = r.pickPointGen(2)
		sp.Engine = r.pick(spaceEngines[sp.Space], []int{60, 25, 15})
	case "delaunay":
		sp.D = 2
		sp.N = r.rangeInt(4, 300)
		sp.Gen = r.pickPointGen(2)
		sp.Engine = r.pick(spaceEngines[sp.Space], []int{60, 25, 15})
	case "halfspace":
		sp.D = r.rangeInt(2, 4)
		sp.N = r.rangeInt(sp.D+2, 60)
		sp.Gen = "sphere"
		sp.Engine = "dual"
		if sp.D <= 3 && sp.N <= 14 && r.pct(30) {
			sp.Engine = "direct"
		}
	case "circles":
		sp.D = 2
		sp.N = r.rangeInt(2, 40)
		sp.Gen = r.pick([]string{"near", "far", "dup"}, []int{70, 20, 10})
	case "trapezoid":
		sp.N = r.rangeInt(1, 36)
		sp.Gen = "segments"
	case "corner":
		sp.D = 3
		sp.Gen = r.pick([]string{"gauss", "grid2", "grid3", "lattice"}, []int{40, 15, 15, 30})
		sp.N = r.rangeInt(4, 30)
	}

	if sp.Space == "hulld" || sp.Space == "hull2d" {
		sp.Reuse = r.pct(25)
		sp.PreHull = r.pick([]string{"", "on", "off"}, []int{60, 25, 15})
	}
	if sp.Space == "hulld" || sp.Space == "hull2d" || sp.Space == "delaunay" {
		sp.FilterGrain = []int{0, 0, 1, 8, 1 << 20}[r.intn(5)]
		sp.MapMode = r.pick([]string{"", "cas", "tas"}, []int{55, 25, 20})
		sp.Workers = []int{0, 0, 0, 1, 2, 4}[r.intn(6)]
	}

	if r.pct(35) {
		f := &FaultPlan{Site: r.intn(faultinject.NumSites)}
		f.Mode = r.pick([]string{"panic", "fail", "delay"}, []int{40, 30, 30})
		switch f.Mode {
		case "panic", "fail":
			f.Visit = int64(1 + r.intn(256))
		case "delay":
			f.Every = int64(2 + r.intn(15))
			f.MaxDelayUS = int64(1 + r.intn(120))
		}
		sp.Fault = f
	}
	if r.pct(15) {
		sp.CancelAfterUS = int64(1 + r.intn(20000))
	}
	return sp
}

// pickPointGen samples a point-cloud generator, including the adversarial
// family (cospherical / lattice / collinear / coplanar stress the exact
// predicates and the degenerate-input error contract). The expensive exact
// paths are capped by the dimension gates below.
func (r *trng) pickPointGen(d int) string {
	gens := []string{"ball", "sphere", "cube", "gauss", "clustered", "aniso", "dup", "neardeg", "collinear"}
	weights := []int{22, 14, 10, 10, 8, 6, 6, 6, 6}
	if d <= 4 {
		gens = append(gens, "cosph", "lattice")
		weights = append(weights, 6, 6)
	}
	if d >= 3 {
		gens = append(gens, "coplanar")
		weights = append(weights, 6)
	}
	return r.pick(gens, weights)
}

// hullPoints materializes the point cloud of a trial deterministically from
// its generator name and generator seed.
func hullPoints(sp TrialSpec) []parhull.Point {
	rng := pointgen.NewRNG(sp.GenSeed)
	n, d := sp.N, sp.D
	switch sp.Gen {
	case "sphere":
		return pointgen.OnSphere(rng, n, d)
	case "cube":
		return pointgen.InCube(rng, n, d)
	case "gauss":
		return pointgen.Gaussian(rng, n, d)
	case "clustered":
		return pointgen.Clustered(rng, n, d, 1+n/16, 0.05)
	case "aniso":
		return pointgen.Anisotropic(rng, n, d, 100)
	case "dup":
		return pointgen.DuplicateHeavy(rng, n, d, 0.3)
	case "neardeg":
		return pointgen.NearDegenerate(rng, n, d, 1.0/(1<<20))
	case "cosph":
		return pointgen.Cospherical(rng, n, d, 0)
	case "lattice":
		return pointgen.IntegerLattice(rng, n, d, 0)
	case "collinear":
		return pointgen.CollinearHeavy(rng, n, d, 0.4)
	case "coplanar":
		return pointgen.CoplanarHeavy(rng, n, d, 0.4)
	default: // "ball"
		return pointgen.UniformBall(rng, n, d)
	}
}

// cornerPoints materializes a Hull3DDegenerate input: intentionally
// degenerate but duplicate-light 3D clouds.
func cornerPoints(sp TrialSpec) []parhull.Point {
	rng := pointgen.NewRNG(sp.GenSeed)
	switch sp.Gen {
	case "grid2":
		return pointgen.Grid3D(2)
	case "grid3":
		return pointgen.Grid3D(3)
	case "lattice":
		return dedupPoints(pointgen.IntegerLattice(rng, sp.N, 3, 0))
	default: // "gauss"
		return pointgen.Gaussian(rng, sp.N, 3)
	}
}

func dedupPoints(pts []parhull.Point) []parhull.Point {
	seen := make(map[string]bool, len(pts))
	out := pts[:0]
	for _, p := range pts {
		k := fmt.Sprintf("%x/%x/%x", p[0], p[1], p[2])
		if !seen[k] {
			seen[k] = true
			out = append(out, p)
		}
	}
	return out
}

// circleCenters materializes a unit-circle-intersection input. "near"
// keeps all centers within pairwise distance < 2 (non-empty boundary),
// "far" allows empty intersections, "dup" plants exact duplicates (the
// degenerate-error path).
func circleCenters(sp TrialSpec) []parhull.Point {
	rng := pointgen.NewRNG(sp.GenSeed)
	pts := pointgen.UniformBall(rng, sp.N, 2)
	scale := 0.45
	if sp.Gen == "far" {
		scale = 1.6
	}
	for i := range pts {
		pts[i][0] *= scale
		pts[i][1] *= scale
	}
	if sp.Gen == "dup" && len(pts) >= 2 {
		pts[len(pts)-1] = append(parhull.Point(nil), pts[0]...)
	}
	return pts
}

// halfspaceNormals materializes a bounded halfspace-intersection input:
// the bounding simplex plus on-sphere normals.
func halfspaceNormals(sp TrialSpec) []parhull.Point {
	rng := pointgen.NewRNG(sp.GenSeed)
	return append(parhull.HalfspaceBoundingSimplex(sp.D), pointgen.OnSphere(rng, sp.N, sp.D)...)
}

// trapezoidInput materializes non-touching horizontal segments in the unit
// box: distinct y levels with jittered spans.
func trapezoidInput(sp TrialSpec) ([]parhull.TrapezoidSegment, parhull.TrapezoidBox) {
	rng := pointgen.NewRNG(sp.GenSeed)
	box := parhull.TrapezoidBox{XL: 0, XR: 1, YB: 0, YT: 1}
	segs := make([]parhull.TrapezoidSegment, sp.N)
	for i := range segs {
		y := (float64(i) + 0.5 + 0.4*(rng.Float64()-0.5)) / float64(sp.N)
		xl := rng.Float64() * 0.8
		xr := xl + 0.05 + rng.Float64()*(0.95-xl-0.05)
		segs[i] = parhull.TrapezoidSegment{Y: y, XL: xl, XR: math.Min(xr, 0.99)}
	}
	// Insertion order is an engine axis (Options.Shuffle); the y-sorted
	// construction order here is part of the input, not the schedule.
	return segs, box
}

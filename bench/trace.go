package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"

	"parhull"
	"parhull/internal/conmap"
	"parhull/internal/engine"
	"parhull/internal/geom"
	"parhull/internal/hull2d"
	"parhull/internal/hulld"
	"parhull/internal/pointgen"
	"parhull/internal/prehull"
)

// span is one timed stage of a traced build. Start and End are nanoseconds
// since the trace began; Parent indexes the enclosing span, -1 for a
// build's root. Spans of one build share Build.
type span struct {
	Name   string `json:"name"`
	Build  int    `json:"build"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out once, at exit. A nil
// tracer records nothing.
type tracer struct {
	t0    time.Time
	build int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<12)} }

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Build: t.build, Parent: parent, Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t != nil {
		t.spans[i].End = time.Since(t.t0).Nanoseconds()
	}
}

// selfTimes is each span's duration minus the durations of its children.
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// stages are the replay's child spans, in pipeline order.
var stages = []string{
	"parhull.shuffle", "parhull.validate", "prehull.probe", "prehull.reduce",
	"prehull.gather", "engine.par", "parhull.assembly",
}

// engineState is the engine state a Builder retains across builds: a Reuse
// per kernel and a sharded ridge table sized on first use and reset after,
// as builder.go's mapCache does.
type engineState struct {
	ruD  *hulld.Reuse
	mapD *conmap.ShardedMap[*hulld.Facet]
	ru2  *hull2d.Reuse
	map2 *conmap.ShardedMap[*hull2d.Facet]
}

func newEngineState() *engineState {
	return &engineState{ruD: hulld.NewReuse(), ru2: hull2d.NewReuse()}
}

func (e *engineState) close() {
	e.ruD.Close()
	e.ru2.Close()
}

func (e *engineState) parD(pts []geom.Point, d, workers int) (*hulld.Result, error) {
	if e.mapD == nil {
		e.mapD = conmap.NewShardedMap[*hulld.Facet](engine.DefaultMapCapacity(len(pts), d))
	} else {
		e.mapD.Reset()
	}
	return hulld.Par(pts, &hulld.Options{Map: e.mapD, Workers: workers, Reuse: e.ruD})
}

func (e *engineState) par2(pts []geom.Point, workers int) (*hull2d.Result, error) {
	if e.map2 == nil {
		e.map2 = conmap.NewShardedMap[*hull2d.Facet](engine.DefaultMapCapacity(len(pts), 0))
	} else {
		e.map2.Reset()
	}
	return hull2d.Par(pts, &hull2d.Options{Map: e.map2, Workers: workers, Reuse: e.ru2})
}

// par runs the engine for its time alone.
func (e *engineState) par(pts []geom.Point, d, workers int) error {
	var err error
	if d == 2 {
		_, err = e.par2(pts, workers)
	} else {
		_, err = e.parD(pts, d, workers)
	}
	return err
}

// The Builder's PreHullAuto probe (Options.preHullWorthIt, unexported, so
// mirrored here): below probeMinN points run direct; otherwise hull the
// first probeSample points of the working order and reduce only when at
// most 1/probeDense of them are hull vertices.
const (
	probeMinN   = 16384
	probeSample = 1024
	probeDense  = 4
)

func probe(work []geom.Point, d int) bool {
	if len(work) < probeMinN {
		return false
	}
	sample := work[:probeSample]
	verts := 0
	if d == 2 {
		res, err := hull2d.SeqCtx(nil, nil, sample, false)
		if err != nil {
			return false
		}
		verts = len(res.Vertices)
	} else {
		res, err := hulld.SeqCtx(nil, nil, sample, false)
		if err != nil {
			return false
		}
		verts = len(res.Vertices)
	}
	return verts <= probeSample/probeDense
}

// replay re-runs parhull.Builder.Build under the default options, calling
// each layer's exported function in the order builder.go does, so that a
// tracer can time every stage from outside the library. It retains its
// buffers as a Builder does, so its steady state matches a warm Builder's.
type replay struct {
	seed    int64
	order   []int
	work    []geom.Point
	ph      prehull.Scratch
	phOrder []int
	phPts   []geom.Point
	eng     *engineState
	flat    []int
	facets  []parhull.Facet
	verts   []int

	// What the last build saw: the pre-hull's result (nil when the probe
	// skipped it) and the engine's input.
	red *prehull.Reduction
	ein []geom.Point
}

func (r *replay) build(w workload, pts []geom.Point, tr *tracer) (hull, error) {
	d := w.dim
	root := tr.begin("parhull.build", -1)
	defer tr.end(root)

	s := tr.begin("parhull.shuffle", root)
	r.order = pointgen.PermInto(pointgen.NewRNG(r.seed), len(pts), r.order)
	r.work = pointgen.ApplyPermInto(pts, r.order, r.work)
	tr.end(s)

	s = tr.begin("parhull.validate", root)
	err := geom.ValidateCloud(r.work, d)
	tr.end(s)
	if err != nil {
		return hull{}, err
	}

	s = tr.begin("prehull.probe", root)
	worth := probe(r.work, d)
	tr.end(s)

	work, order := r.work, r.order
	r.red = nil
	if worth {
		s = tr.begin("prehull.reduce", root)
		red, err := prehull.Reduce(work, prehull.Config{ZOrder: true, Scratch: &r.ph})
		tr.end(s)
		if err != nil {
			return hull{}, err
		}
		r.red = red
		if red.Keep != nil {
			s = tr.begin("prehull.gather", root)
			r.phOrder = slices.Grow(r.phOrder[:0], len(red.Keep))[:len(red.Keep)]
			for i, k := range red.Keep {
				r.phOrder[i] = order[k]
			}
			r.phPts = prehull.GatherInto(r.phPts, work, red.Keep)
			work, order = r.phPts, r.phOrder
			tr.end(s)
		}
	}
	r.ein = work

	if d == 2 {
		s = tr.begin("engine.par", root)
		res, err := r.eng.par2(work, 0)
		tr.end(s)
		if err != nil {
			return hull{}, err
		}
		s = tr.begin("parhull.assembly", root)
		r.verts = r.verts[:0]
		for _, v := range res.Vertices {
			r.verts = append(r.verts, order[v])
		}
		tr.end(s)
		return hull{vertices: r.verts, stats: res.Stats}, nil
	}

	s = tr.begin("engine.par", root)
	res, err := r.eng.parD(work, d, 0)
	tr.end(s)
	if err != nil {
		return hull{}, err
	}
	s = tr.begin("parhull.assembly", root)
	r.flat, r.facets = r.flat[:0], r.facets[:0]
	for _, f := range res.Facets {
		start := len(r.flat)
		for _, v := range f.Verts {
			r.flat = append(r.flat, order[v])
		}
		r.facets = append(r.facets, parhull.Facet{Vertices: r.flat[start:len(r.flat):len(r.flat)]})
	}
	r.verts = r.verts[:0]
	for _, v := range res.Vertices {
		r.verts = append(r.verts, order[v])
	}
	sort.Ints(r.verts)
	tr.end(s)
	return hull{facets: r.facets, vertices: r.verts, stats: res.Stats}, nil
}

// The traced run's time budget, as shares of -seconds: interleaved
// untraced builds and traced replays, then per-layer repetitions at
// P = min(2, nproc) and P = 1.
const (
	pairShare  = 0.6
	layerShare = 0.4
	minLayer   = 2
)

// traceRun measures the per-layer metrics. It alternates warm Builder
// builds (untraced) with traced replays of the same pipeline, then times
// the pre-hull and the engine alone at two widths, and reads the engine's
// structure from one Rounds call.
func traceRun(w workload, seed int64, scale, seconds float64, refs []uint64, traceOut string, stderr io.Writer) (childOut, error) {
	inputs := w.inputs(seed, scale)
	d := w.dim
	c := &checker{refs: refs}
	opt := options(shuffleSeed(seed, 0))
	b := parhull.NewBuilder(opt)
	defer b.Close()
	r := &replay{seed: opt.Seed, eng: newEngineState()}
	defer r.eng.close()

	h, err := w.build(b, inputs[0]) // warm-up, untimed
	c.check(0, h, err)
	h, err = r.build(w, inputs[0], nil)
	c.check(0, h, err)

	// Untraced and traced builds of the same cloud and shuffle,
	// interleaved so that drift hits both alike.
	tr := newTracer()
	var untraced []float64
	var mem memDelta
	var cal calibrator
	limit := time.Duration(pairShare * seconds * float64(time.Second))
	start := time.Now()
	for i := 1; len(untraced) < minTimed || time.Since(start) < limit; i++ {
		k := i % len(inputs)
		opt.Seed = shuffleSeed(seed, i)
		r.seed = opt.Seed
		mem.begin()
		t0 := time.Now()
		h, err := w.build(b, inputs[k])
		dt := time.Since(t0)
		mem.end()
		untraced = append(untraced, dt.Seconds())
		c.check(k, h, err)
		cal.sample()
		tr.build = i
		h, err = r.build(w, inputs[k], tr)
		c.check(k, h, err) // the replay must hash exactly like Build
		cal.sample()
	}

	// The layers alone, on cloud 0's shuffled input and engine input.
	r.seed = shuffleSeed(seed, 0)
	h, err = r.build(w, inputs[0], nil)
	c.check(0, h, err)
	if err != nil {
		return childOut{}, fmt.Errorf("replay: %w", err)
	}
	work, ein, red, est := slices.Clone(r.work), slices.Clone(r.ein), r.red, h.stats
	lb, err := layerReps(w, work, ein, red != nil, seconds*layerShare, &cal)
	if err != nil {
		return childOut{}, err
	}
	rounds, width, err := roundsOf(ein, d)
	if err != nil {
		return childOut{}, fmt.Errorf("rounds: %w", err)
	}

	// Stage times per build, 0 where a stage did not run.
	self := tr.selfTimes()
	nb := len(untraced)
	perStage := map[string][]float64{}
	for _, name := range append([]string{"parhull.build"}, stages...) {
		perStage[name] = make([]float64, nb)
	}
	var traced []float64
	for i, s := range tr.spans {
		perStage[s.Name][s.Build-1] += float64(self[i]) / 1e9
		if s.Parent < 0 {
			traced = append(traced, float64(s.End-s.Start)/1e9)
		}
	}
	p50 := median(untraced)
	sum := 0.0
	for _, name := range stages {
		sum += median(perStage[name])
	}

	n := float64(len(work))
	m := metrics{}
	m.set("parhull.shuffle_s", median(perStage["parhull.shuffle"]), "s")
	m.set("parhull.validate_s", median(perStage["parhull.validate"]), "s")
	m.set("parhull.assembly_s", median(perStage["parhull.assembly"]), "s")
	m.set("prehull.probe_s", median(perStage["prehull.probe"]), "s")
	m.set("prehull.reduce_s", median(perStage["prehull.reduce"]), "s")
	m.set("prehull.gather_s", median(perStage["prehull.gather"]), "s")
	culled, blocks, degen := 0, 0, 0
	if red != nil {
		culled, blocks, degen = red.Culled, red.Blocks, red.DegenerateBlocks
	}
	m.set("prehull.culled_frac", float64(culled)/n, "fraction")
	m.set("prehull.kept_frac", float64(len(ein))/n, "fraction")
	m.set("prehull.blocks", float64(blocks), "count")
	m.set("prehull.degenerate_blocks", float64(degen), "count")
	m.set("prehull.allocs_per_call", median(lb.reduceMem.mallocs), "count")
	m.set("prehull.alloc_mb_per_call", median(lb.reduceMem.bytes)/1e6, "MB")
	m.set("prehull.reduce_speedup_p2", ratio(median(lb.reduce[1]), median(lb.reduce[0])), "x")
	m.set("engine.par_s", median(perStage["engine.par"]), "s")
	m.set("engine.allocs_per_call", median(lb.parMem.mallocs), "count")
	m.set("engine.speedup_p2", ratio(median(lb.par[1]), median(lb.par[0])), "x")
	m.set("engine.tests_per_point", float64(est.VisibilityTests)/float64(len(ein)), "count")
	m.set("engine.exact_fallback_frac", ratio(float64(est.ExactFallbacks), float64(est.VisibilityTests)), "fraction")
	m.set("engine.facets_created", float64(est.FacetsCreated), "count")
	m.set("engine.live_frac", ratio(float64(est.HullSize), float64(est.FacetsCreated)), "fraction")
	m.set("engine.max_depth", float64(est.MaxDepth), "count")
	m.set("engine.rounds", float64(rounds), "count")
	m.set("engine.max_round_width", float64(width), "count")
	m.set("runtime.gc_cycles_per_build", mem.perCall(float64(mem.gcs)), "count")
	m.set("runtime.gc_pause_ms_per_build", mem.perCall(float64(mem.pauseNs))/1e6, "ms")
	m.set("trace.coverage", ratio(sum, p50), "fraction")
	m.set("trace.overhead_frac", ratio(median(traced), p50)-1, "fraction")
	m.scaleTimes(cal.scale())

	printLayers(stderr, w, perStage, p50, m)
	if traceOut != "" {
		if err := writeSpans(traceOut, w.name, seed, tr.spans); err != nil {
			return childOut{}, err
		}
	}
	return childOut{Attempted: c.attempted, Failed: c.failed, Metrics: m}, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerBench holds the per-layer repetitions; index 0 is P = min(2, nproc),
// index 1 is P = 1.
type layerBench struct {
	reduce, par       [2][]float64
	reduceMem, parMem memDelta // at index 0's width
}

// layerReps times prehull.Reduce and the engine alone, with retained
// scratch and Reuse as a Builder keeps them, at two widths (GOMAXPROCS and
// Workers pinned together), for at least minLayer repetitions and seconds.
func layerReps(w workload, work, ein []geom.Point, reduced bool, seconds float64, cal *calibrator) (*layerBench, error) {
	widths := [2]int{min(2, runtime.NumCPU()), 1}
	var scratch [2]prehull.Scratch
	var eng [2]*engineState
	for i := range eng {
		eng[i] = newEngineState()
		defer eng[i].close()
	}

	lb := &layerBench{}
	limit := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	for rep := 0; rep < minLayer || time.Since(start) < limit; rep++ {
		for i, p := range widths {
			prev := runtime.GOMAXPROCS(p)
			err := lb.rep(w, i, p, work, ein, reduced, &scratch[i], eng[i])
			runtime.GOMAXPROCS(prev)
			if err != nil {
				return nil, err
			}
		}
		cal.sample()
	}
	return lb, nil
}

func (lb *layerBench) rep(w workload, i, p int, work, ein []geom.Point, reduced bool, scratch *prehull.Scratch, es *engineState) error {
	reduceMem, parMem := &lb.reduceMem, &lb.parMem
	if i != 0 {
		reduceMem, parMem = nil, nil
	}
	if reduced {
		dt, err := timed(reduceMem, func() error {
			_, err := prehull.Reduce(work, prehull.Config{Workers: p, ZOrder: true, Scratch: scratch})
			return err
		})
		if err != nil {
			return fmt.Errorf("prehull.Reduce: %w", err)
		}
		lb.reduce[i] = append(lb.reduce[i], dt)
	}
	dt, err := timed(parMem, func() error { return es.par(ein, w.dim, p) })
	if err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	lb.par[i] = append(lb.par[i], dt)
	return nil
}

// timed runs f and returns its wall time in seconds, bracketing it with
// mem's MemStats reads when mem is not nil.
func timed(mem *memDelta, f func() error) (float64, error) {
	if mem != nil {
		mem.begin()
	}
	t0 := time.Now()
	err := f()
	dt := time.Since(t0).Seconds()
	if mem != nil {
		mem.end()
	}
	return dt, err
}

// roundsOf runs the round-synchronous engine once (untimed) and returns its
// round count and widest round: structural guards for Theorems 1.1 and 5.3.
func roundsOf(pts []geom.Point, d int) (int, int, error) {
	var st parhull.Stats
	if d == 2 {
		r, _, err := hull2d.Rounds(pts, nil)
		if err != nil {
			return 0, 0, err
		}
		st = r.Stats
	} else {
		r, err := hulld.Rounds(pts, nil)
		if err != nil {
			return 0, 0, err
		}
		st = r.Stats
	}
	return st.Rounds, slices.Max(append(st.RoundWidths, 0)), nil
}

// printLayers prints the per-layer table: each span's median self time, its
// share of the untraced build, and the top layer.
func printLayers(out io.Writer, w workload, perStage map[string][]float64, p50 float64, m metrics) {
	fmt.Fprintf(out, "%s traced replay: %d builds, untraced median build %.4f s (wall clock, unscaled)\n", w.name, len(perStage["parhull.build"]), p50)
	fmt.Fprintf(out, "  %-18s %12s %7s\n", "span", "self_p50_ms", "share")
	top, topT := "", -1.0
	for _, name := range append([]string{"parhull.build"}, stages...) {
		t := median(perStage[name])
		fmt.Fprintf(out, "  %-18s %12.3f %6.1f%%\n", name, t*1e3, 100*ratio(t, p50))
		if name != "parhull.build" && t > topT {
			top, topT = name, t
		}
	}
	cov := m["trace.coverage"].Value
	fmt.Fprintf(out, "  top layer %s; coverage %.3f; tracing overhead %+.1f%%\n", top, cov, 100*m["trace.overhead_frac"].Value)
	if cov < 0.85 || cov > 1.15 {
		fmt.Fprintf(out, "  replay drift: coverage %.3f is outside [0.85, 1.15]\n", cov)
	}
}

func writeSpans(path, workload string, seed int64, spans []span) error {
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

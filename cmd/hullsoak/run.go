package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"time"

	"parhull"
	"parhull/internal/certify"
	"parhull/internal/faultinject"
	"parhull/internal/sched"
)

// Outcome is the record of one executed trial. A non-empty Violation means
// the rig caught a real failure (bad output, broken error contract, hang,
// or leak) — everything else, including typed engine errors from injected
// faults and degenerate inputs, is a passing trial.
type Outcome struct {
	Spec        TrialSpec
	Err         string // engine error text ("" on success)
	Class       string // contract class: ok, degenerate, bad-coordinate, capacity, canceled, panic
	Fingerprint string // canonical result hash (success only)
	Certified   bool

	SideTests, ExactFallbacks int   // certifier counters
	EngineExactFallbacks      int64 // Stats.ExactFallbacks of the construction
	CapacityRetries           int
	Elapsed                   time.Duration

	Violation string

	errValue error // raw engine error (classification only; not serialized)
}

// Summary is the one-line per-trial report (satellite: exact-fallback and
// capacity-retry drift is surfaced here, not just pass/fail).
func (o Outcome) Summary() string {
	status := "ok(" + o.Class + ")"
	if o.Certified {
		status = "certified"
	}
	if o.Violation != "" {
		status = "VIOLATION"
	}
	s := fmt.Sprintf("%s %s exactFallbacks=%d/%d capRetries=%d in %v",
		o.Spec, status, o.ExactFallbacks, o.EngineExactFallbacks, o.CapacityRetries,
		o.Elapsed.Round(time.Microsecond))
	if o.Violation != "" {
		s += " :: " + o.Violation
	} else if o.Err != "" {
		s += " :: " + o.Err
	}
	return s
}

// buildOptions realizes a TrialSpec as public Options plus the armed
// injector and the cancellation hook.
func buildOptions(sp TrialSpec) (*parhull.Options, context.CancelFunc) {
	o := &parhull.Options{
		Shuffle:     sp.Shuffle,
		Seed:        sp.ShuffleSeed,
		FilterGrain: sp.FilterGrain,
		Workers:     sp.Workers,
	}
	switch sp.Engine {
	case "seq":
		o.Engine = parhull.EngineSequential
	case "rounds":
		o.Engine = parhull.EngineRounds
	}
	switch sp.MapMode {
	case "cas":
		o.Map = parhull.MapCAS
	case "tas":
		o.Map = parhull.MapTAS
	}
	switch sp.PreHull {
	case "on":
		o.PreHull = parhull.PreHullOn
	case "off":
		o.PreHull = parhull.PreHullOff
	}
	if sp.Fault != nil {
		inj := faultinject.New(int64(sp.Seed))
		site := faultinject.Site(sp.Fault.Site)
		switch sp.Fault.Mode {
		case "panic":
			inj.PanicAt(site, sp.Fault.Visit)
		case "fail":
			inj.FailAt(site, sp.Fault.Visit)
		case "delay":
			inj.DelayEvery(site, sp.Fault.Every, time.Duration(sp.Fault.MaxDelayUS)*time.Microsecond)
		}
		o.SetFaultInjector(inj)
	}
	cancel := context.CancelFunc(func() {})
	if sp.CancelAfterUS > 0 {
		var ctx context.Context
		ctx, cancel = context.WithTimeout(context.Background(),
			time.Duration(sp.CancelAfterUS)*time.Microsecond)
		o.Context = ctx
	}
	return o, cancel
}

// RunTrial executes one trial under a watchdog deadline and returns its
// full outcome. It never panics: engine panics that escape containment are
// themselves violations.
func RunTrial(sp TrialSpec, deadline time.Duration) Outcome {
	start := time.Now()
	ch := make(chan Outcome, 1)
	go func() {
		out := Outcome{Spec: sp}
		defer func() {
			if r := recover(); r != nil {
				out.Violation = fmt.Sprintf("panic escaped the public API: %v", r)
			}
			ch <- out
		}()
		runSpace(sp, &out)
		classify(sp, &out)
	}()
	select {
	case out := <-ch:
		out.Elapsed = time.Since(start)
		return out
	case <-time.After(deadline):
		buf := make([]byte, 1<<18)
		n := runtime.Stack(buf, true)
		return Outcome{
			Spec:    sp,
			Elapsed: time.Since(start),
			Violation: fmt.Sprintf("watchdog: trial still running after %v; goroutines:\n%s",
				deadline, buf[:n]),
		}
	}
}

// classify asserts the typed-error contract: every engine error must match
// exactly the sentinel its trial configuration can legitimately produce.
func classify(sp TrialSpec, out *Outcome) {
	if out.Violation != "" {
		return
	}
	if out.Err == "" {
		out.Class = "ok"
		return
	}
	err := out.errValue
	var pe *sched.PanicError
	switch {
	case errors.As(err, &pe):
		out.Class = "panic"
		if sp.Fault == nil || sp.Fault.Mode != "panic" {
			out.Violation = "contained panic without an armed panic plan: " + out.Err
		}
	case errors.Is(err, parhull.ErrCanceled):
		out.Class = "canceled"
		if sp.CancelAfterUS <= 0 {
			out.Violation = "ErrCanceled without an armed cancellation deadline: " + out.Err
		}
	case errors.Is(err, parhull.ErrCapacity):
		out.Class = "capacity"
		if sp.MapMode == "" && (sp.Fault == nil || sp.Fault.Mode != "fail") {
			out.Violation = "ErrCapacity with the growable sharded map and no fail plan: " + out.Err
		}
	case errors.Is(err, parhull.ErrDegenerate):
		out.Class = "degenerate"
	case errors.Is(err, parhull.ErrBadCoordinate):
		out.Class = "bad-coordinate"
	case errors.Is(err, parhull.ErrBadOption):
		out.Violation = "ErrBadOption from a derived spec (the sampler emitted an invalid option): " + out.Err
	default:
		out.Violation = "error matches no public sentinel: " + out.Err
	}
}

// runSpace dispatches the trial to its configuration space, certifies the
// result on success, and fingerprints it for bit-for-bit replay checks.
func runSpace(sp TrialSpec, out *Outcome) {
	opt, cancel := buildOptions(sp)
	defer cancel()
	switch sp.Space {
	case "hull2d":
		pts := hullPoints(sp)
		res, firstVerts, err := buildTwice2D(sp, pts, opt)
		if setErr(out, err) {
			return
		}
		out.EngineExactFallbacks = res.Stats.ExactFallbacks
		out.CapacityRetries = res.Stats.CapacityRetries
		h := fnv.New64a()
		hashInts(h, res.Vertices)
		out.Fingerprint = fmt.Sprintf("%016x", h.Sum64())
		if firstVerts != nil && !sameInts(res.Vertices, firstVerts) {
			out.Violation = "Builder reuse changed the hull vertex cycle"
			return
		}
		st, cerr := certify.Hull2D(pts, res.Vertices)
		certDone(out, st, cerr)
	case "hulld":
		pts := hullPoints(sp)
		res, firstFP, err := buildTwiceD(sp, pts, opt)
		if setErr(out, err) {
			return
		}
		out.EngineExactFallbacks = res.Stats.ExactFallbacks
		out.CapacityRetries = res.Stats.CapacityRetries
		facets := canonFacets(res)
		out.Fingerprint = fingerprintFacets(facets)
		if firstFP != "" && out.Fingerprint != firstFP {
			out.Violation = "Builder reuse changed the facet set"
			return
		}
		st, cerr := certify.Hull(pts, facets, res.Vertices)
		certDone(out, st, cerr)
	case "delaunay":
		pts := hullPoints(sp)
		res, err := parhull.Delaunay(pts, opt)
		if setErr(out, err) {
			return
		}
		out.EngineExactFallbacks = res.Stats.ExactFallbacks
		tris := append([][3]int(nil), res.Triangles...)
		sort.Slice(tris, func(i, j int) bool { return lessTri(tris[i], tris[j]) })
		h := fnv.New64a()
		for _, t := range tris {
			hashInts(h, t[:])
		}
		out.Fingerprint = fmt.Sprintf("%016x", h.Sum64())
		st, cerr := certify.Delaunay(pts, res.Triangles)
		certDone(out, st, cerr)
	case "halfspace":
		normals := halfspaceNormals(sp)
		var res *parhull.HalfspaceResult
		var err error
		if sp.Engine == "direct" {
			res, err = parhull.HalfspaceIntersectionDirect(normals, opt)
		} else {
			res, err = parhull.HalfspaceIntersection(normals, opt)
		}
		if setErr(out, err) {
			return
		}
		out.EngineExactFallbacks = res.Stats.ExactFallbacks
		verts := make([]certify.HSVertex, len(res.Vertices))
		defs := make([][]int, len(res.Vertices))
		for i, v := range res.Vertices {
			verts[i] = certify.HSVertex{Point: v.Point, Defining: v.Halfspaces}
			defs[i] = sortedInts(v.Halfspaces)
		}
		sort.Slice(defs, func(i, j int) bool { return lessInts(defs[i], defs[j]) })
		h := fnv.New64a()
		for _, d := range defs {
			hashInts(h, d)
		}
		out.Fingerprint = fmt.Sprintf("%016x", h.Sum64())
		st, cerr := certify.Halfspace(normals, verts)
		certDone(out, st, cerr)
	case "circles":
		centers := circleCenters(sp)
		arcs, nonEmpty, err := parhull.UnitCircleIntersection(centers, opt)
		if setErr(out, err) {
			return
		}
		h := fnv.New64a()
		for _, a := range arcs {
			hashInts(h, []int{a.Circle})
			hashFloats(h, a.Lo, a.Length)
		}
		out.Fingerprint = fmt.Sprintf("%016x", h.Sum64())
		if !nonEmpty {
			return // empty intersection: nothing to certify
		}
		conv := make([]certify.CircleArc, len(arcs))
		for i, a := range arcs {
			conv[i] = certify.CircleArc{Circle: a.Circle, Lo: a.Lo, Length: a.Length}
		}
		certDone(out, certify.Stats{}, certify.Circles(centers, conv))
	case "trapezoid":
		segs, box := trapezoidInput(sp)
		cells, err := parhull.TrapezoidDecomposition(segs, box, opt)
		if setErr(out, err) {
			return
		}
		conv := make([]certify.TrapCell, len(cells))
		h := fnv.New64a()
		for i, c := range cells {
			conv[i] = certify.TrapCell{XL: c.XL, XR: c.XR, YB: c.YB, YT: c.YT, Segments: c.Segments}
			hashFloats(h, c.XL, c.XR, c.YB, c.YT)
			hashInts(h, sortedInts(c.Segments))
		}
		out.Fingerprint = fmt.Sprintf("%016x", h.Sum64())
		certDone(out, certify.Stats{}, certify.Trapezoids(segs, box, conv))
	case "corner":
		pts := cornerPoints(sp)
		faces, err := parhull.Hull3DDegenerate(pts, opt)
		if setErr(out, err) {
			return
		}
		conv := make([][]int, len(faces))
		h := fnv.New64a()
		for i, f := range faces {
			conv[i] = f.Vertices
			hashInts(h, f.Vertices)
		}
		out.Fingerprint = fmt.Sprintf("%016x", h.Sum64())
		certDone(out, certify.Stats{}, certify.CornerFaces(pts, conv))
	default:
		out.Violation = "derived spec names unknown space " + sp.Space
	}
}

// buildTwice2D runs the 2D construction — twice through one Builder when
// the trial exercises the reuse/rewind path. The first result is
// invalidated by the second build, so its vertex cycle is snapshotted for
// the determinism cross-check.
func buildTwice2D(sp TrialSpec, pts []parhull.Point, opt *parhull.Options) (res *parhull.Hull2DResult, firstVerts []int, err error) {
	if !sp.Reuse {
		res, err = parhull.Hull2D(pts, opt)
		return res, nil, err
	}
	b := parhull.NewBuilder(opt)
	defer b.Close()
	if res, err = b.Build2D(pts); err != nil {
		return nil, nil, err
	}
	firstVerts = append([]int(nil), res.Vertices...)
	res, err = b.Build2D(pts)
	return res, firstVerts, err
}

func buildTwiceD(sp TrialSpec, pts []parhull.Point, opt *parhull.Options) (res *parhull.HullDResult, firstFP string, err error) {
	if !sp.Reuse {
		res, err = parhull.HullD(pts, opt)
		return res, "", err
	}
	b := parhull.NewBuilder(opt)
	defer b.Close()
	if res, err = b.Build(pts); err != nil {
		return nil, "", err
	}
	firstFP = fingerprintFacets(canonFacets(res))
	res, err = b.Build(pts)
	return res, firstFP, err
}

// setErr records an engine error on the outcome (the error value is kept
// off the JSON surface but drives classification).
func setErr(out *Outcome, err error) bool {
	if err == nil {
		return false
	}
	out.Err = err.Error()
	out.errValue = err
	return true
}

// certDone folds a certification verdict into the outcome.
func certDone(out *Outcome, st certify.Stats, err error) {
	out.SideTests = st.SideTests
	out.ExactFallbacks = st.ExactFallbacks
	if err != nil {
		out.Violation = "certification failed: " + err.Error()
		return
	}
	out.Certified = true
}

func canonFacets(res *parhull.HullDResult) [][]int {
	facets := make([][]int, len(res.Facets))
	for i, f := range res.Facets {
		facets[i] = sortedInts(f.Vertices)
	}
	sort.Slice(facets, func(i, j int) bool { return lessInts(facets[i], facets[j]) })
	return facets
}

func fingerprintFacets(facets [][]int) string {
	h := fnv.New64a()
	for _, f := range facets {
		hashInts(h, f)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func sortedInts(s []int) []int {
	c := append([]int(nil), s...)
	sort.Ints(c)
	return c
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func lessInts(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

func lessTri(a, b [3]int) bool { return lessInts(a[:], b[:]) }

// hashInts feeds a canonical little-endian encoding of ints (plus a
// terminator) into the fingerprint hash.
func hashInts(h interface{ Write([]byte) (int, error) }, s []int) {
	var b [8]byte
	for _, v := range s {
		u := uint64(int64(v))
		for i := 0; i < 8; i++ {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	h.Write([]byte{0xff})
}

func hashFloats(h interface{ Write([]byte) (int, error) }, vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		u := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	h.Write([]byte{0xfe})
}

// Package prehull implements the divide-and-conquer input reduction used by
// the public layer before a full hull construction. It runs in two stages,
// both of which only ever discard points that provably cannot be hull
// vertices, so the construction that follows produces the exact same final
// facets as a direct run — the pre-hull changes how much work reaches the
// engine, never what it outputs.
//
// Stage 1 (interior cull): build the hull of a small prefix sample with the
// existing sequential kernel, orient each sample facet's cached hyperplane
// (geom.NewFacetPlane) against the sample centroid, and drop every point the
// static float filter certifies strictly inside ALL sample facets. The
// sample hull is a subset of the true hull, so a point strictly interior to
// it is strictly interior to the full hull. Certification uses the
// worst-case threshold of geom.StaticFilterEps: an uncertified comparison
// keeps the point, so float rounding can only make the cull less effective,
// never wrong. For a uniform ball the cull drops the vast majority of the
// input for h·n fused multiply-adds (h = sample hull size).
//
// Stage 2 (block sub-hulls): split the survivors into contiguous blocks,
// compute each block's hull with the sequential kernel — blocks in parallel
// on the work-stealing executor — and keep only the block-hull vertices
// (a point interior to its block's hull is interior to the full hull). This
// is ParGeo's concurrent-hull recipe (~8 blocks per worker, serial
// sub-hulls, flatten the survivors) and is where the block loop's multicore
// scaling comes from.
//
// For boundary-heavy inputs (on-sphere: every point a vertex) both stages
// would keep everything; stage 1 detects that from the sample hull density
// and disables itself, and the public layer's auto heuristic skips the
// pre-hull entirely.
//
// Failure discipline matches the engines (DESIGN.md §5): a degenerate block
// — a sub-hull that cannot be built because the block violates general
// position — is kept whole instead of failing the run (a safe
// over-approximation); cancellation is checked at stage boundaries and
// block boundaries and the first ctx error wins; a panic inside a sample or
// block sub-hull is contained (sched.Recovered / the executor) and surfaces
// as *sched.PanicError, never a crash.
package prehull

import (
	"context"
	"errors"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"parhull/internal/faultinject"
	"parhull/internal/geom"
	"parhull/internal/hull2d"
	"parhull/internal/hulld"
	"parhull/internal/sched"
)

const (
	// DefaultMinBlock is the serial-fallback threshold: Reduce never makes
	// blocks smaller than this (a sub-hull over a handful of points keeps
	// nearly all of them — pure overhead).
	DefaultMinBlock = 100
	// blockTarget caps the block size the auto rule aims for. 8 blocks per
	// worker is the ParGeo ratio, but at low worker counts it would make
	// enormous blocks whose serial sub-hulls dominate the run; ~32k-point
	// blocks measured fastest for the sequential kernel, so the auto rule
	// takes whichever of the two rules makes more blocks.
	blockTarget = 1 << 15
	// blocksPerWorker is the oversubscription factor of the block loop, so
	// uneven blocks load-balance across the executor's deques.
	blocksPerWorker = 8

	// cullSample is the prefix length hulled by the stage-1 interior cull;
	// the sample hull's facet count h sets the worst-case per-point filter
	// cost, and the uncovered shell (the survivors) shrinks as the sample
	// grows. The inscribed-sphere fast path makes deep-interior points
	// nearly free, so a larger sample mostly buys fewer survivors.
	cullSample = 2048
	// cullMinN disables the cull below this input size — with few points
	// per sample-hull facet the h·n scan cannot pay for itself.
	cullMinN = 8 * cullSample
	// cullDense disables the cull when the sample hull keeps more than
	// 1/cullDense of the sample (boundary-heavy input: nothing inside).
	cullDense = 4
)

// Config parameterizes one reduction.
type Config struct {
	// Workers is the executor pool width for the block loop (<= 0 selects
	// GOMAXPROCS). The stage-1 point scan parallelizes via sched.ParallelFor,
	// which sizes itself from GOMAXPROCS.
	Workers int
	// Blocks overrides the automatic block count (<= 0 = auto: the max of
	// 8 per worker and survivors/32768, clamped so no block drops below
	// MinBlock).
	Blocks int
	// MinBlock overrides the smallest allowed block size (<= 0 selects
	// DefaultMinBlock).
	MinBlock int
	// ZOrder partitions the block stage spatially: survivors are presorted
	// along the Morton curve of their bounding box so each block is a
	// compact region (small sub-hulls, cache-coherent conflict scans)
	// instead of a random sample. Within a block, points keep their
	// relative input order, so the randomized-insertion guarantees of the
	// sub-hulls are preserved when the caller shuffled.
	ZOrder bool
	// NoCull disables the stage-1 interior cull (ablation; the block stage
	// alone is still exact).
	NoCull bool
	// Ctx, when non-nil, cancels the reduction cooperatively: checked at
	// stage and block boundaries here and at insertion granularity inside
	// the sub-hulls.
	Ctx context.Context
	// Inject arms deterministic fault injection inside the sample and block
	// sub-hulls (tests only; nil in production).
	Inject *faultinject.Injector
	// Scratch, when non-nil, recycles the reduction's state across Reduce
	// calls: one retained sequential engine per executor worker, the cull
	// planes, the Z-order buffers, and every index list. Each call
	// invalidates the Reduction (and gathered cloud) of the previous call
	// that used the same Scratch. nil runs on a fresh Scratch.
	Scratch *Scratch
}

// Scratch holds the retained state of Config.Scratch. All buffers are
// grow-only; the zero value is ready to use.
type Scratch struct {
	// Stage 1.
	keepMask []bool
	cand     []int32
	work     []geom.Point
	cull     cullState

	// Stage 2: Z-order buffers, the per-block survivor runs (block b writes
	// its survivors from its first position on, and blockCnt[b] records how
	// many), and one sequential sub-hull state per executor worker.
	zperm    []int32
	zkeys    []uint64
	blockOut []int32
	blockCnt []int32
	workers  []seqWorker

	keep []int32
}

// seqWorker is one executor worker's retained sub-hull state. Only the
// worker with its index touches it.
type seqWorker struct {
	hull2   *hull2d.SeqReuse
	hullD   *hulld.SeqReuse
	members []int32      // a Z-order block's members, ascending
	pts     []geom.Point // a Z-order block's points
	verts   []int32      // 2D hull vertices, re-sorted ascending
	fverts  []int32      // flat facet vertex tuples of the cull sample
}

// ensureWorkers sizes the per-worker states for nw executor workers. Call
// before the executor starts: the slice must not grow under the workers.
func (s *Scratch) ensureWorkers(nw int) {
	for len(s.workers) < nw {
		s.workers = append(s.workers, seqWorker{})
	}
}

// hull2D runs the 2D sequential kernel over pts on the worker's retained
// engine; the Result is valid until the worker's next sub-hull.
func (w *seqWorker) hull2D(cfg Config, pts []geom.Point) (*hull2d.Result, error) {
	if w.hull2 == nil {
		w.hull2 = hull2d.NewSeqReuse()
	}
	return w.hull2.Seq(cfg.Ctx, cfg.Inject, pts)
}

// hullND is hull2D for d >= 3.
func (w *seqWorker) hullND(cfg Config, pts []geom.Point) (*hulld.Result, error) {
	if w.hullD == nil {
		w.hullD = hulld.NewSeqReuse()
	}
	return w.hullD.Seq(cfg.Ctx, cfg.Inject, pts)
}

// hullVerts returns the ascending indices of the hull vertices of pts,
// valid until the worker's next sub-hull.
func (w *seqWorker) hullVerts(cfg Config, d int, pts []geom.Point) ([]int32, error) {
	if d == 2 {
		res, err := w.hull2D(cfg, pts)
		if err != nil {
			return nil, err
		}
		// 2D vertices come back in CCW hull order.
		w.verts = append(w.verts[:0], res.Vertices...)
		slices.Sort(w.verts)
		return w.verts, nil
	}
	res, err := w.hullND(cfg, pts)
	if err != nil {
		return nil, err
	}
	return res.Vertices, nil
}

// hullFacets returns the alive facets of the hull of pts as a flat list of
// d-index tuples, plus the hull vertex count; the list is valid until the
// worker's next sub-hull.
func (w *seqWorker) hullFacets(cfg Config, d int, pts []geom.Point) ([]int32, int, error) {
	w.fverts = w.fverts[:0]
	if d == 2 {
		res, err := w.hull2D(cfg, pts)
		if err != nil {
			return nil, 0, err
		}
		for _, f := range res.Facets {
			w.fverts = append(w.fverts, f.A, f.B)
		}
		return w.fverts, len(res.Vertices), nil
	}
	res, err := w.hullND(cfg, pts)
	if err != nil {
		return nil, 0, err
	}
	for _, f := range res.Facets {
		w.fverts = append(w.fverts, f.Verts...)
	}
	return w.fverts, len(res.Vertices), nil
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return sched.Workers()
}

func (c Config) minBlock() int {
	if c.MinBlock > 0 {
		return c.MinBlock
	}
	return DefaultMinBlock
}

func (c Config) ctxErr() error {
	if c.Ctx == nil {
		return nil
	}
	return c.Ctx.Err()
}

func isDegenerate(err error) bool {
	return errors.Is(err, hull2d.ErrDegenerate) || errors.Is(err, hulld.ErrDegenerate)
}

// BlockCount returns the number of blocks the block stage will use for n
// points: the configured override, or the auto rule described on
// Config.Blocks. A return below 2 means the input is too small to block up
// (the serial fallback).
func BlockCount(n int, cfg Config) int {
	b := cfg.Blocks
	if b <= 0 {
		b = blocksPerWorker * cfg.workers()
		if t := (n + blockTarget - 1) / blockTarget; t > b {
			b = t
		}
	}
	if cap := n / cfg.minBlock(); b > cap {
		b = cap
	}
	if b < 1 {
		b = 1
	}
	return b
}

// Reduction is the outcome of one pre-hull pass.
type Reduction struct {
	// Keep holds the indices of the surviving points, ascending — a
	// subsequence of the input order, so a shuffled input stays shuffled.
	// Nil when no reduction was performed (input too small; run directly).
	Keep []int32
	// Culled counts points dropped by the stage-1 interior filter.
	Culled int
	// Blocks is the number of block sub-hulls run.
	Blocks int
	// DegenerateBlocks counts blocks kept whole because their sub-hull
	// reported degenerate input (the safe over-approximation).
	DegenerateBlocks int
}

// Reduce runs the two-stage reduction over pts (dimension d = len(pts[0])
// >= 2) and returns the surviving index set. The caller is responsible for
// validating the cloud first (NaN/Inf coordinates); degenerate geometry
// needs no pre-validation — a degenerate sample skips the cull and
// degenerate blocks are kept whole.
//
// Error surface: ctx cancellation returns the ctx error; a contained panic
// in a sample or block sub-hull returns a *sched.PanicError, so the public
// layer's containment contract sees exactly what a direct run would
// surface; sub-hull errors other than degeneracy (e.g. a bad coordinate)
// propagate as-is.
func Reduce(pts []geom.Point, cfg Config) (*Reduction, error) {
	n := len(pts)
	d := 0
	if n > 0 {
		d = len(pts[0])
	}
	if d < 2 {
		return &Reduction{Blocks: 1}, nil
	}
	if err := cfg.ctxErr(); err != nil {
		return nil, err
	}
	s := cfg.Scratch
	if s == nil {
		s = new(Scratch)
	}

	// Stage 1: certified-interior cull. cand == nil means "all points".
	cfg.Inject.Visit(faultinject.SitePreHullStage)
	var cand []int32
	if !cfg.NoCull {
		var err error
		cand, err = cullInterior(pts, d, cfg, s)
		if err != nil {
			return nil, err
		}
		if err := cfg.ctxErr(); err != nil {
			return nil, err
		}
	}
	culled := 0
	work := pts
	if cand != nil {
		culled = n - len(cand)
		s.work = GatherInto(s.work, pts, cand)
		work = s.work
	}

	// Stage 2: block sub-hulls over the survivors.
	cfg.Inject.Visit(faultinject.SitePreHullStage)
	blockKeep, nb, degen, err := blockReduce(work, d, cfg, s)
	if err != nil {
		return nil, err
	}

	red := &Reduction{Culled: culled, Blocks: nb, DegenerateBlocks: degen}
	switch {
	case cand == nil && blockKeep == nil:
		// Neither stage reduced anything; run directly.
	case blockKeep == nil:
		red.Keep = cand
	case cand == nil:
		red.Keep = blockKeep
	default:
		s.keep = slices.Grow(s.keep[:0], len(blockKeep))[:len(blockKeep)]
		for i, v := range blockKeep {
			s.keep[i] = cand[v]
		}
		red.Keep = s.keep
	}
	return red, nil
}

// HullVertexCount returns the number of hull vertices of pts (dimension
// len(pts[0]) >= 2), built by the sequential kernel on the retained state of
// cfg.Scratch (a fresh state when nil). Only Ctx, Inject, and Scratch are
// read. It is the public layer's PreHullAuto density probe.
func HullVertexCount(pts []geom.Point, cfg Config) (int, error) {
	s := cfg.Scratch
	if s == nil {
		s = new(Scratch)
	}
	s.ensureWorkers(1)
	verts, err := s.workers[0].hullVerts(cfg, len(pts[0]), pts)
	return len(verts), err
}

// cullState is stage 1's certified plane set, rebuilt per call into
// retained buffers.
type cullState struct {
	maxAbs   []float64
	centroid []float64
	vp       []geom.Point
	// planes are the sample hull's facet planes, oriented so the sample
	// interior is strictly negative; rows repeats them as flat
	// [n0 n1 n2 off] rows when d == 3, for the inlined scan3 loop.
	planes []geom.Plane
	rows   [][4]float64
	eps    float64 // static certification threshold over the whole cloud
	r2     float64 // squared certified inscribed-sphere radius (0 = none)
}

// cullInterior is stage 1: it returns the ascending index list of points
// that survive the sample-hull interior filter, or nil when the cull is
// skipped (input too small, dimension uncached, degenerate or dense sample,
// uncertifiable planes, or nothing culled). Only errors that must abort the
// whole reduction (cancellation, injected panics, bad coordinates) are
// returned.
func cullInterior(pts []geom.Point, d int, cfg Config, s *Scratch) ([]int32, error) {
	n := len(pts)
	if n < cullMinN || d > geom.MaxPlaneDim {
		return nil, nil
	}
	s.ensureWorkers(1)
	c := &s.cull
	if ok, err := c.build(pts, d, cfg, &s.workers[0]); !ok || err != nil {
		return nil, err
	}

	// Scan: a point is dropped only when every plane certifies it strictly
	// interior (Eval < -Eps) — or, cheaper, when it lies inside the
	// certified inscribed sphere. The plane loop exits on the first plane
	// that fails to certify, so shell points are cheap; mid-shell points
	// pay at most h evals.
	s.keepMask = slices.Grow(s.keepMask[:0], n)[:n]
	keepMask := s.keepMask
	clear(keepMask)
	var kept atomic.Int64
	sched.ParallelFor(n, 4096, func(lo, hi int) {
		if cfg.ctxErr() != nil {
			return // the post-stage ctx check in Reduce reports it
		}
		kept.Add(int64(c.scan(pts, lo, hi, keepMask)))
	})
	if err := cfg.ctxErr(); err != nil {
		return nil, err
	}
	k := int(kept.Load())
	if k == n {
		return nil, nil
	}
	cand := slices.Grow(s.cand[:0], k)
	for i, m := range keepMask {
		if m {
			cand = append(cand, int32(i))
		}
	}
	s.cand = cand
	return cand, nil
}

// build hulls the cull sample on worker w's retained engine and derives the
// certified plane set. It reports false when the cull must be skipped
// (degenerate or boundary-heavy sample, uncertifiable planes).
func (c *cullState) build(pts []geom.Point, d int, cfg Config, w *seqWorker) (bool, error) {
	sample := pts[:cullSample]
	var fverts []int32
	var verts int
	var herr error
	if perr := sched.Recovered(func() {
		fverts, verts, herr = w.hullFacets(cfg, d, sample)
	}); perr != nil {
		return false, perr
	}
	if herr != nil {
		if isDegenerate(herr) {
			return false, nil // flat sample: nothing certifiable, skip the cull
		}
		return false, herr
	}
	if verts > cullSample/cullDense {
		return false, nil // boundary-heavy input: the cull would keep everything
	}

	// Static certification threshold over the whole cloud (the planes are
	// evaluated against every point, so the bound must cover all of them).
	c.maxAbs = slices.Grow(c.maxAbs[:0], d)[:d]
	maxAbs := c.maxAbs
	clear(maxAbs)
	for _, p := range pts {
		for j := 0; j < d; j++ {
			if a := p[j]; a > maxAbs[j] {
				maxAbs[j] = a
			} else if -a > maxAbs[j] {
				maxAbs[j] = -a
			}
		}
	}
	eps := geom.StaticFilterEps(maxAbs)
	if eps <= 0 {
		return false, nil
	}

	// Orient every sample facet so the sample interior is strictly negative,
	// using the sample centroid as the interior witness. Any facet the
	// filter cannot certify against the centroid disables the whole cull —
	// dropping single facets would be unsound.
	c.centroid = slices.Grow(c.centroid[:0], d)[:d]
	centroid := c.centroid
	clear(centroid)
	for _, p := range sample {
		for j := 0; j < d; j++ {
			centroid[j] += p[j]
		}
	}
	for j := range centroid {
		centroid[j] /= float64(len(sample))
	}
	// While orienting, accumulate the inscribed-sphere radius around the
	// centroid: r = min over facets of (certified clearance / ||N||). Any
	// point within 0.999·r of the centroid satisfies Eval < -Eps on every
	// plane (Cauchy-Schwarz on the exact linear form, with the Eps margin
	// absorbing the evaluation error and the 0.1% shrink absorbing the
	// rounding of the distance and norm computations themselves), so the
	// common deep-interior case costs one squared distance instead of h
	// plane evaluations.
	c.vp = slices.Grow(c.vp[:0], d)[:d]
	c.planes, c.rows = c.planes[:0], c.rows[:0]
	rIn := math.Inf(1)
	for f := 0; f+d <= len(fverts); f += d {
		for i, v := range fverts[f : f+d] {
			c.vp[i] = sample[v]
		}
		pl := geom.NewFacetPlane(c.vp, eps)
		if !pl.Valid() {
			return false, nil
		}
		s, ok := pl.CertifiedSign(centroid)
		if !ok {
			return false, nil
		}
		if s > 0 {
			for j := 0; j < d; j++ {
				pl.N[j] = -pl.N[j]
			}
			pl.Off = -pl.Off
		}
		norm := 0.0
		for j := 0; j < d; j++ {
			norm += pl.N[j] * pl.N[j]
		}
		norm = math.Sqrt(norm)
		if clear := -pl.Eval(centroid) - eps; norm > 0 && clear/norm < rIn {
			rIn = clear / norm
		}
		c.planes = append(c.planes, pl)
		if d == 3 {
			c.rows = append(c.rows, [4]float64{pl.N[0], pl.N[1], pl.N[2], pl.Off})
		}
	}
	c.eps, c.r2 = eps, 0
	if rIn > 0 && !math.IsInf(rIn, 1) {
		c.r2 = 0.999 * rIn * 0.999 * rIn
	}
	return true, nil
}

// scan marks keepMask[i] for every point i in [lo, hi) the plane set cannot
// certify strictly interior, and returns how many it marked.
func (c *cullState) scan(pts []geom.Point, lo, hi int, keepMask []bool) int {
	if len(c.centroid) == 3 {
		return c.scan3(pts, lo, hi, keepMask)
	}
	return c.scanPlanes(pts, lo, hi, keepMask)
}

// scanPlanes is the scan for any dimension, one Plane.Eval per plane.
func (c *cullState) scanPlanes(pts []geom.Point, lo, hi int, keepMask []bool) int {
	d, centroid, eps := len(c.centroid), c.centroid, c.eps
	kept := 0
	for i := lo; i < hi; i++ {
		x := pts[i]
		dist2 := 0.0
		for j := 0; j < d; j++ {
			dx := x[j] - centroid[j]
			dist2 += dx * dx
		}
		if dist2 < c.r2 {
			continue // certified deep interior
		}
		for pi := range c.planes {
			if c.planes[pi].Eval(x) >= -eps {
				keepMask[i] = true
				kept++
				break
			}
		}
	}
	return kept
}

// scan3 is scanPlanes for d == 3 over the flat rows, with the distance and
// plane evaluations inlined. Both keep the summation order of the generic
// loop and of Plane.Eval's d == 3 case, so the keep mask is bit-identical.
func (c *cullState) scan3(pts []geom.Point, lo, hi int, keepMask []bool) int {
	c0, c1, c2 := c.centroid[0], c.centroid[1], c.centroid[2]
	r2, negEps := c.r2, -c.eps
	kept := 0
	for i := lo; i < hi; i++ {
		x := pts[i]
		x0, x1, x2 := x[0], x[1], x[2]
		dx0, dx1, dx2 := x0-c0, x1-c1, x2-c2
		if dx0*dx0+dx1*dx1+dx2*dx2 < r2 {
			continue // certified deep interior
		}
		for _, r := range c.rows {
			if r[0]*x0+r[1]*x1+r[2]*x2-r[3] >= negEps {
				keepMask[i] = true
				kept++
				break
			}
		}
	}
	return kept
}

// blockReduce is stage 2: the parallel block sub-hull loop over work,
// returning the ascending block-survivor indices (into work), the block
// count, and the degenerate-block count. A nil keep with a nil error means
// the input was too small to block up (run it whole).
func blockReduce(work []geom.Point, d int, cfg Config, s *Scratch) ([]int32, int, int, error) {
	n := len(work)
	nb := BlockCount(n, cfg)
	if nb < 2 {
		return nil, 1, 0, nil
	}

	// Partition: block b owns positions [b*n/nb, (b+1)*n/nb) of the input
	// order, or of the Z-order when spatial partitioning is on. Z blocks
	// re-sort their members ascending so each sub-hull inserts in the
	// caller's (random) relative order, and survivors merge back into a
	// subsequence of the input.
	var zperm []int32
	if cfg.ZOrder {
		s.zperm, s.zkeys = geom.ZOrderPermInto(s.zperm, s.zkeys, work)
		zperm = s.zperm
	}
	s.blockOut = slices.Grow(s.blockOut[:0], n)[:n]
	s.blockCnt = slices.Grow(s.blockCnt[:0], nb)[:nb]
	nw := cfg.workers()
	s.ensureWorkers(nw)

	var (
		degen   atomic.Int64
		errOnce sync.Once
		firstEr atomic.Pointer[error]
		failed  atomic.Bool
	)
	fail := func(err error) {
		errOnce.Do(func() { firstEr.Store(&err) })
		failed.Store(true)
	}

	body := func(wid int, b int) {
		if failed.Load() {
			return
		}
		// One visit per block, inside the executor: an armed panic here is
		// contained into a *sched.PanicError like any block sub-hull panic.
		cfg.Inject.Visit(faultinject.SitePreHullBlock)
		if err := cfg.ctxErr(); err != nil {
			fail(err)
			return
		}
		w := &s.workers[wid]
		lo, hi := b*n/nb, (b+1)*n/nb
		var members []int32 // indices into work; nil when the block is contiguous
		blockPts := work[lo:hi]
		if zperm != nil {
			w.members = append(w.members[:0], zperm[lo:hi]...)
			slices.Sort(w.members)
			members = w.members
			w.pts = w.pts[:0]
			for _, m := range members {
				w.pts = append(w.pts, work[m])
			}
			blockPts = w.pts
		}
		// The survivors are copied out of the worker's sub-hull state into
		// this block's run before the worker moves on (its next sub-hull
		// rewinds the arena the vertex list lives in).
		out := s.blockOut[lo:hi]
		verts, err := w.hullVerts(cfg, d, blockPts)
		switch {
		case err == nil:
			for i, v := range verts {
				if members != nil {
					out[i] = members[v]
				} else {
					out[i] = int32(lo) + v
				}
			}
			s.blockCnt[b] = int32(len(verts))
		case isDegenerate(err):
			// The block cannot support a sub-hull (collinear, coplanar, too
			// small): keep every point. Correctness never depends on a block
			// actually reducing.
			degen.Add(1)
			if members != nil {
				copy(out, members)
			} else {
				for i := range out {
					out[i] = int32(lo + i)
				}
			}
			s.blockCnt[b] = int32(hi - lo)
		default:
			fail(err)
		}
	}

	x := sched.NewExecutor(nw, body)
	for b := 0; b < nb; b++ {
		x.Fork(sched.External, b)
	}
	x.Wait()
	if ep := firstEr.Load(); ep != nil {
		return nil, nb, int(degen.Load()), *ep
	}
	if err := x.Err(); err != nil {
		return nil, nb, int(degen.Load()), err // a contained *sched.PanicError
	}

	// Compact the block runs in place: run b starts at b*n/nb, at or after
	// the total length of the runs before it.
	total := 0
	for b := 0; b < nb; b++ {
		lo := b * n / nb
		total += copy(s.blockOut[total:], s.blockOut[lo:lo+int(s.blockCnt[b])])
	}
	keep := s.blockOut[:total]
	if zperm != nil {
		// Blocks were spatial, so their survivor runs interleave in input
		// order; restore the global subsequence.
		slices.Sort(keep)
	}
	return keep, nb, int(degen.Load()), nil
}

// Gather materializes the reduced cloud: out[i] = pts[keep[i]]. The point
// headers are shared with the input (coordinates are not copied); the
// engines copy coordinates into their own PointStore anyway.
func Gather(pts []geom.Point, keep []int32) []geom.Point {
	return GatherInto(nil, pts, keep)
}

// GatherInto is Gather writing into buf (reused when its capacity allows).
func GatherInto(buf []geom.Point, pts []geom.Point, keep []int32) []geom.Point {
	if cap(buf) < len(keep) {
		buf = make([]geom.Point, len(keep))
	}
	out := buf[:len(keep)]
	for i, k := range keep {
		out[i] = pts[k]
	}
	return out
}

// Package prehull implements the divide-and-conquer input reduction used by
// the public layer before a full hull construction. It runs in two stages,
// both of which only ever discard points that provably cannot be hull
// vertices, so the construction that follows produces the exact same final
// facets as a direct run — the pre-hull changes how much work reaches the
// engine, never what it outputs.
//
// Stage 1 (interior cull): build the hull of a prefix sample (2048 to 8192
// points, by n) with the existing sequential kernel, orient each sample
// facet's cached hyperplane (geom.NewFacetPlane) against the sample
// centroid, and drop every point the static float filter certifies
// strictly inside the sample hull. The sample hull is a subset of the true
// hull, so a point strictly interior to it is strictly interior to the full
// hull. Certification uses the worst-case threshold of
// geom.StaticFilterEps over the sample's box (its per-axis maximum
// |coordinate|); a point outside that box cannot lie inside the sample hull
// and is kept without a test, and an uncertified comparison keeps the
// point, so float rounding can only make the cull less effective, never
// wrong. A point costs O(1) plane evaluations, not O(h) (h = sample hull
// size): deep-interior points fall inside a certified inscribed sphere, and
// every other point is tested only against the few facets its direction
// from the centroid can leave the sample hull through, listed per cell of a
// cube map (cull.go). Directions are scaled per axis by powers of two, so
// a cloud flat along the axes gets an index too; where none fits (a cloud
// flat off the axes, say), every point is tested against every plane of a
// 2048-point sample.
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
// over-approximation); cancellation is checked at stage boundaries, scan
// chunk and block boundaries, and the first ctx error wins; a panic inside
// a sample or block sub-hull is contained (sched.Recovered / the executor)
// and surfaces as *sched.PanicError, never a crash.
package prehull

import (
	"context"
	"errors"
	"slices"
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
	// uneven blocks load-balance across the executor's deques. The cull
	// scan splits its points into as many chunks.
	blocksPerWorker = 8
	// minChunk is the smallest cull scan chunk.
	minChunk = 4096
)

// Config parameterizes one reduction.
type Config struct {
	// Workers is the executor pool width for the cull scan and the block
	// loop (<= 0 selects GOMAXPROCS).
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
	// stage, chunk and block boundaries here and at insertion granularity
	// inside the sub-hulls.
	Ctx context.Context
	// Inject arms deterministic fault injection inside the sample and block
	// sub-hulls (tests only; nil in production).
	Inject *faultinject.Injector
	// Scratch, when non-nil, recycles the reduction's state across Reduce
	// calls: the executor and one retained sequential engine per worker,
	// the cull planes and cell index, the Z-order buffers, and every index
	// list. Each call invalidates the Reduction (and gathered cloud) of the
	// previous call that used the same Scratch, and the caller must Close
	// it when done (see Scratch). nil runs on a fresh Scratch, which Reduce
	// closes itself.
	Scratch *Scratch
}

// Scratch holds the retained state of Config.Scratch. All buffers are
// grow-only; the zero value is ready to use. A Scratch that ran a Reduce
// must be closed: its executor's workers stay parked until Close, and they
// reference the Scratch, so an unclosed Scratch is never garbage-collected
// and keeps every buffer it grew (the keep mask, the Z-order and block
// buffers, the per-worker sub-hull engines).
type Scratch struct {
	// Stage 1.
	keepMask []bool
	cand     []int32
	work     []geom.Point
	cull     cullState

	// Stage 2: Z-order buffers, the per-block survivor runs (block b writes
	// its survivors from its first position on, and blockCnt[b] records how
	// many), and one sequential sub-hull state per executor worker.
	z        geom.ZOrder
	blockOut []int32
	blockCnt []int32
	workers  []seqWorker

	keep []int32
	red  Reduction

	// The executor both stages run on. It is bound once to run, which
	// reads the running call's state below; that state is set before each
	// cycle (the deque mutex of the first fork publishes it) and cleared
	// when Reduce returns, so no caller data outlives a call.
	x      *sched.Executor[int]
	width  int
	cfg    Config
	stage  int // stageCull or stageBlocks
	pts    []geom.Point
	d      int
	chunk  int     // stage 1: points per scan chunk
	nb     int     // stage 2: block count
	zperm  []int32 // stage 2: the Z-order, nil for contiguous blocks
	failed atomic.Bool
	err    atomic.Pointer[error]
}

// The executor's two kinds of cycle: a task is a scan chunk or a block.
const (
	stageCull = iota
	stageBlocks
)

// seqWorker is one executor worker's retained sub-hull state. Only the
// worker with its index touches it.
type seqWorker struct {
	// The sequential kernels' retained state and the Options that point Seq
	// at it, kept per worker so a sub-hull allocates no Options either.
	hull2   *hull2d.Reuse
	hullD   *hulld.Reuse
	opt2    hull2d.Options
	optD    hulld.Options
	members []int32      // a Z-order block's members, ascending
	pts     []geom.Point // a Z-order block's points
	verts   []int32      // 2D hull vertices, re-sorted ascending
	fverts  []int32      // flat facet vertex tuples of the cull sample
	kept    int          // points this worker's scan chunks kept
	degen   int          // blocks this worker kept whole
}

// ensureWorkers sizes the per-worker states for nw executor workers. Call
// before the executor starts: the slice must not grow under the workers.
func (s *Scratch) ensureWorkers(nw int) {
	for len(s.workers) < nw {
		s.workers = append(s.workers, seqWorker{})
	}
}

// cycle runs one executor cycle of tasks 0..tasks-1 of the given stage on
// nw workers and returns the contained panic, if any. The first cycle (or a
// width change) starts the pool, bound once to run; later cycles restart
// the parked workers, as engine.Pool does.
func (s *Scratch) cycle(stage, tasks, nw int) error {
	s.stage = stage
	if s.x != nil && s.width == nw {
		s.x.Restart()
	} else {
		s.Close()
		s.x, s.width = sched.NewExecutor(nw, s.run), nw
	}
	for t := 0; t < tasks; t++ {
		s.x.Fork(sched.External, t)
	}
	s.x.Quiesce()
	return s.x.Err()
}

// run executes task t of the current cycle on worker wid.
func (s *Scratch) run(wid, t int) {
	if s.stage == stageCull {
		s.scanChunk(wid, t)
	} else {
		s.block(wid, t)
	}
}

// fail records the first error of a block and stops the blocks not yet
// started.
func (s *Scratch) fail(err error) {
	s.err.CompareAndSwap(nil, &err)
	s.failed.Store(true)
}

// Close retires the executor's workers, which lets the Scratch be
// garbage-collected. The Scratch stays usable: the next Reduce starts a
// new pool.
func (s *Scratch) Close() {
	if s.x != nil {
		s.x.Close()
		s.x = nil
	}
}

// release drops the running call's references to caller data.
func (s *Scratch) release() {
	s.cfg, s.pts, s.zperm = Config{}, nil, nil
}

// hull2D runs the 2D sequential kernel over pts on the worker's retained
// engine; the Result is valid until the worker's next sub-hull.
func (w *seqWorker) hull2D(cfg Config, pts []geom.Point) (*hull2d.Result, error) {
	if w.hull2 == nil {
		w.hull2 = hull2d.NewReuse()
	}
	w.opt2 = hull2d.Options{Ctx: cfg.Ctx, Inject: cfg.Inject, Reuse: w.hull2}
	return hull2d.Seq(pts, &w.opt2)
}

// hullND is hull2D for d >= 3.
func (w *seqWorker) hullND(cfg Config, pts []geom.Point) (*hulld.Result, error) {
	if w.hullD == nil {
		w.hullD = hulld.NewReuse()
	}
	w.optD = hulld.Options{Ctx: cfg.Ctx, Inject: cfg.Inject, Reuse: w.hullD}
	return hulld.Seq(pts, &w.optD)
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
		defer s.Close()
	}
	s.cfg, s.d = cfg, d
	defer s.release()
	nw := cfg.workers()
	s.ensureWorkers(nw)

	// Stage 1: certified-interior cull. cand == nil means "all points".
	cfg.Inject.Visit(faultinject.SitePreHullStage)
	var cand []int32
	if !cfg.NoCull {
		var err error
		cand, err = s.cullInterior(pts, nw)
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
	blockKeep, nb, degen, err := s.blockReduce(work, nw)
	if err != nil {
		return nil, err
	}

	s.red = Reduction{Culled: culled, Blocks: nb, DegenerateBlocks: degen}
	switch {
	case cand == nil && blockKeep == nil:
		// Neither stage reduced anything; run directly.
	case blockKeep == nil:
		s.red.Keep = cand
	case cand == nil:
		s.red.Keep = blockKeep
	default:
		s.keep = slices.Grow(s.keep[:0], len(blockKeep))[:len(blockKeep)]
		for i, v := range blockKeep {
			s.keep[i] = cand[v]
		}
		s.red.Keep = s.keep
	}
	return &s.red, nil
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

// blockReduce is stage 2: the parallel block sub-hull loop over work,
// returning the ascending block-survivor indices (into work), the block
// count, and the degenerate-block count. A nil keep with a nil error means
// the input was too small to block up (run it whole).
func (s *Scratch) blockReduce(work []geom.Point, nw int) ([]int32, int, int, error) {
	n := len(work)
	nb := BlockCount(n, s.cfg)
	if nb < 2 {
		return nil, 1, 0, nil
	}

	// Partition: block b owns positions [b*n/nb, (b+1)*n/nb) of the input
	// order, or of the Z-order when spatial partitioning is on. Z blocks
	// re-sort their members ascending so each sub-hull inserts in the
	// caller's (random) relative order, and survivors merge back into a
	// subsequence of the input.
	s.zperm = nil
	if s.cfg.ZOrder {
		s.zperm, _ = geom.ZOrderPermInto(&s.z, work)
	}
	s.blockOut = slices.Grow(s.blockOut[:0], n)[:n]
	s.blockCnt = slices.Grow(s.blockCnt[:0], nb)[:nb]
	s.pts, s.nb = work, nb
	s.failed.Store(false)
	s.err.Store(nil)
	for w := range s.workers[:nw] {
		s.workers[w].degen = 0
	}
	perr := s.cycle(stageBlocks, nb, nw)
	degen := 0
	for w := range s.workers[:nw] {
		degen += s.workers[w].degen
	}
	if ep := s.err.Load(); ep != nil {
		return nil, nb, degen, *ep
	}
	if perr != nil {
		return nil, nb, degen, perr // a contained *sched.PanicError
	}

	// Compact the block runs in place: run b starts at b*n/nb, at or after
	// the total length of the runs before it.
	total := 0
	for b := 0; b < nb; b++ {
		lo := b * n / nb
		total += copy(s.blockOut[total:], s.blockOut[lo:lo+int(s.blockCnt[b])])
	}
	keep := s.blockOut[:total]
	if s.zperm != nil {
		// Blocks were spatial, so their survivor runs interleave in input
		// order; restore the global subsequence.
		slices.Sort(keep)
	}
	return keep, nb, degen, nil
}

// block hulls block b of the block stage on worker wid and writes its
// survivors (or, for a degenerate block, all its members) into its run of
// s.blockOut.
func (s *Scratch) block(wid, b int) {
	if s.failed.Load() {
		return
	}
	// One visit per block, inside the executor: an armed panic here is
	// contained into a *sched.PanicError like any block sub-hull panic.
	cfg, work := &s.cfg, s.pts
	cfg.Inject.Visit(faultinject.SitePreHullBlock)
	if err := cfg.ctxErr(); err != nil {
		s.fail(err)
		return
	}
	w := &s.workers[wid]
	n := len(work)
	lo, hi := b*n/s.nb, (b+1)*n/s.nb
	var members []int32 // indices into work; nil when the block is contiguous
	blockPts := work[lo:hi]
	if s.zperm != nil {
		w.members = append(w.members[:0], s.zperm[lo:hi]...)
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
	verts, err := w.hullVerts(*cfg, s.d, blockPts)
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
		w.degen++
		if members != nil {
			copy(out, members)
		} else {
			for i := range out {
				out[i] = int32(lo + i)
			}
		}
		s.blockCnt[b] = int32(hi - lo)
	default:
		s.fail(err)
	}
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

package parhull

import (
	"fmt"
	"sort"

	"parhull/internal/conmap"
	"parhull/internal/engine"
	"parhull/internal/faultinject"
	"parhull/internal/geom"
	"parhull/internal/hull2d"
	"parhull/internal/hulld"
	"parhull/internal/pointgen"
	"parhull/internal/prehull"
)

// Builder runs repeated hull constructions on retained state. A one-shot call
// (Hull2D, HullD) allocates its worker pool, arenas, ridge table, conflict
// buffers, and output slices per call; a Builder allocates them on the first
// Build and recycles them on every subsequent one, so the steady-state cost
// of a construction is the geometry, not the scaffolding. Inputs may vary in
// size and dimension between calls — every pooled buffer grows to the
// high-water mark and stays there.
//
// The output of a Build on a Builder is identical to a fresh one-shot call
// with the same Options and input — same facets, same vertices, same stats —
// the pooling changes where the bytes live, never what they say. (The
// one-shot entry points are themselves thin NewBuilder/Build/Close wrappers.)
//
// Contract:
//
//   - A Builder is single-goroutine: at most one Build at a time.
//   - Each Build invalidates the previous result obtained from the same
//     Builder — facet slices and vertex slices are recycled in place. Callers
//     that need two results alive at once use two Builders (or copy).
//   - A Build that fails — including a canceled Context or a contained panic —
//     leaves the Builder fully reusable; recycled state is rewound at the
//     start of the next Build, not the end of the failed one.
//   - Close retires the retained worker pools. The last result stays valid;
//     any later Build returns an error.
//
// The Options pointer is retained, not copied: the caller may adjust fields
// (Context, Workers, Shuffle, ...) between builds, never during one.
type Builder struct {
	opt *Options

	ruD *hulld.Reuse
	ru2 *hull2d.Reuse

	mapsD mapCache[*hulld.Facet]
	maps2 mapCache[*hull2d.Facet]

	// shuffle and pre-hull buffers, grow-only.
	order   []int
	work    []Point
	phOrder []int
	phPts   []Point
	ph      prehull.Scratch

	// output buffers: facet headers, one flat backing array carved into
	// per-facet vertex slices, and the hull vertex list.
	facets []Facet
	flat   []int
	vertsD []int
	resD   HullDResult
	verts2 []int
	res2   Hull2DResult

	closed bool
}

// NewBuilder returns a Builder for repeated constructions under opt (nil is
// the zero default, as in the one-shot calls). All pooled state is created
// lazily by the first Build.
func NewBuilder(opt *Options) *Builder {
	return &Builder{opt: opt.or(), ruD: hulld.NewReuse(), ru2: hull2d.NewReuse()}
}

var errBuilderClosed = fmt.Errorf("%w: Builder used after Close", ErrBadOption)

// Reset rewinds the pooled engine state immediately, invalidating the
// previous result while keeping every retained buffer for the next Build.
// Optional — Build rewinds lazily anyway; Reset exists for callers that want
// the previous result's memory recycled eagerly.
func (b *Builder) Reset() {
	b.ruD.Reset()
	b.ru2.Reset()
}

// Close retires the retained worker pools. The Builder must not Build again
// (it returns an error); the last result remains valid. Close is idempotent.
func (b *Builder) Close() {
	if b == nil || b.closed {
		return
	}
	b.closed = true
	b.ruD.Close()
	b.ru2.Close()
}

// perm is Options.perm into the Builder's retained order buffer.
func (b *Builder) perm(n int) []int {
	if !b.opt.Shuffle {
		return nil
	}
	b.order = pointgen.PermInto(pointgen.NewRNG(b.opt.Seed), n, b.order)
	return b.order
}

// shuffled is applyShuffle into the Builder's retained point buffer.
func (b *Builder) shuffled(pts []Point, order []int) []Point {
	if order == nil {
		return pts
	}
	b.work = pointgen.ApplyPermInto(pts, order, b.work)
	return b.work
}

// maybePreHull is Options.maybePreHull on the Builder's retained pre-hull
// scratch and composition buffers.
func (b *Builder) maybePreHull(work []Point, order []int, d int) ([]Point, []int, int, int, error) {
	o := b.opt
	if o.PreHull == PreHullOff || d < 2 || len(work) == 0 {
		return work, order, 0, 0, nil
	}
	if err := geom.ValidateCloud(work, d); err != nil {
		return nil, nil, 0, 0, err
	}
	if o.PreHull == PreHullAuto && !o.preHullWorthIt(work, &b.ph) {
		return work, order, 0, 0, nil
	}
	red, err := prehull.Reduce(work, prehull.Config{
		Workers: o.Workers,
		ZOrder:  !o.NoPreHullZOrder,
		Ctx:     o.Context,
		Inject:  o.inject,
		Scratch: &b.ph,
	})
	if err != nil {
		return nil, nil, 0, 0, err
	}
	if red.Keep == nil {
		return work, order, 0, 0, nil // too small to block up: run direct
	}
	if cap(b.phOrder) < len(red.Keep) {
		b.phOrder = make([]int, len(red.Keep))
	}
	newOrder := b.phOrder[:len(red.Keep)]
	b.phOrder = newOrder
	for i, k := range red.Keep {
		newOrder[i] = mapBack(k, order)
	}
	b.phPts = prehull.GatherInto(b.phPts, work, red.Keep)
	return b.phPts, newOrder, red.Blocks, len(red.Keep), nil
}

// Build computes the convex hull in the dimension given by the points — the
// reusable HullD. See HullD for semantics and the error surface; see the
// Builder type for the recycling contract.
func (b *Builder) Build(pts []Point) (out *HullDResult, err error) {
	defer guard(&err)
	if b.closed {
		return nil, errBuilderClosed
	}
	o := b.opt
	if err := o.validate(); err != nil {
		return nil, err
	}
	order := b.perm(len(pts))
	work := b.shuffled(pts, order)
	d := 0
	if len(pts) > 0 {
		d = len(pts[0])
	}
	work, order, phBlocks, phKept, err := b.maybePreHull(work, order, d)
	if err != nil {
		return nil, wrapErr(err)
	}

	var res *hulld.Result
	var retries int
	var fellBack bool
	switch o.Engine {
	case EngineSequential:
		res, err = hulld.SeqCtx(o.Context, o.inject, work, false)
	case EngineParallel, EngineRounds:
		run := func(m conmap.RidgeMap[*hulld.Facet]) (*hulld.Result, error) {
			ho := &hulld.Options{
				Map:         m,
				Workers:     o.Workers,
				NoCounters:  o.NoCounters,
				FilterGrain: o.FilterGrain,
				Ctx:         o.Context,
				Inject:      o.inject,
			}
			if o.Engine == EngineRounds {
				return hulld.Rounds(work, ho)
			}
			ho.Reuse = b.ruD
			return hulld.Par(work, ho)
		}
		res, retries, fellBack, err = ladder(o,
			o.capacity(engine.FixedMapCapacity(len(work), d)),
			func(c int) conmap.RidgeMap[*hulld.Facet] { return b.mapsD.fixedFor(o.Map, c, o.inject) },
			func() conmap.RidgeMap[*hulld.Facet] {
				return b.mapsD.shardedFor(o.capacity(engine.DefaultMapCapacity(len(work), d)))
			},
			run)
	default:
		return nil, errBadEngine
	}
	if err != nil {
		return nil, wrapErr(err)
	}
	res.Stats.CapacityRetries = retries
	res.Stats.MapFallback = fellBack
	res.Stats.PreHullBlocks = phBlocks
	res.Stats.PreHullKept = phKept

	// Assemble the public result into the retained buffers: all per-facet
	// vertex slices are carved (capacity-clamped) from one flat backing array,
	// so the whole facet list costs two grow-only buffers instead of one
	// allocation per facet.
	need := 0
	for _, f := range res.Facets {
		need += len(f.Verts)
	}
	if cap(b.flat) < need {
		b.flat = make([]int, 0, need)
	}
	flat := b.flat[:0]
	if cap(b.facets) < len(res.Facets) {
		b.facets = make([]Facet, 0, len(res.Facets))
	}
	facets := b.facets[:0]
	for _, f := range res.Facets {
		start := len(flat)
		for _, v := range f.Verts {
			flat = append(flat, mapBack(v, order))
		}
		facets = append(facets, Facet{Vertices: flat[start:len(flat):len(flat)]})
	}
	b.flat, b.facets = flat, facets
	if cap(b.vertsD) < len(res.Vertices) {
		b.vertsD = make([]int, 0, len(res.Vertices))
	}
	verts := b.vertsD[:0]
	for _, v := range res.Vertices {
		verts = append(verts, mapBack(v, order))
	}
	if order != nil {
		// The engine sorts vertices in its own index space; mapping back
		// through a shuffle or pre-hull permutation breaks that, and the
		// public contract promises sorted caller indices.
		sort.Ints(verts)
	}
	b.vertsD = verts
	b.resD = HullDResult{Facets: facets, Vertices: verts, Stats: res.Stats}
	return &b.resD, nil
}

// Build3D is Build with a dimension check — the reusable Hull3D.
func (b *Builder) Build3D(pts []Point) (*HullDResult, error) {
	if len(pts) > 0 && len(pts[0]) != 3 {
		return nil, fmt.Errorf("%w: Build3D needs 3D points, got dimension %d", ErrBadOption, len(pts[0]))
	}
	return b.Build(pts)
}

// Build2D computes the convex hull of 2D points — the reusable Hull2D. See
// Hull2D for semantics and the error surface; see the Builder type for the
// recycling contract.
func (b *Builder) Build2D(pts []Point) (out *Hull2DResult, err error) {
	defer guard(&err)
	if b.closed {
		return nil, errBuilderClosed
	}
	o := b.opt
	if err := o.validate(); err != nil {
		return nil, err
	}
	order := b.perm(len(pts))
	work := b.shuffled(pts, order)
	work, order, phBlocks, phKept, err := b.maybePreHull(work, order, 2)
	if err != nil {
		return nil, wrapErr(err)
	}

	var res *hull2d.Result
	var retries int
	var fellBack bool
	switch o.Engine {
	case EngineSequential:
		res, err = hull2d.SeqCtx(o.Context, o.inject, work, false)
	case EngineParallel, EngineRounds:
		run := func(m conmap.RidgeMap[*hull2d.Facet]) (*hull2d.Result, error) {
			ho := &hull2d.Options{
				Map:         m,
				Workers:     o.Workers,
				NoCounters:  o.NoCounters,
				FilterGrain: o.FilterGrain,
				Ctx:         o.Context,
				Inject:      o.inject,
			}
			if o.Engine == EngineRounds {
				r, _, e := hull2d.Rounds(work, ho)
				return r, e
			}
			ho.Reuse = b.ru2
			return hull2d.Par(work, ho)
		}
		res, retries, fellBack, err = ladder(o,
			o.capacity(engine.FixedMapCapacity(len(work), 0)),
			func(c int) conmap.RidgeMap[*hull2d.Facet] { return b.maps2.fixedFor(o.Map, c, o.inject) },
			func() conmap.RidgeMap[*hull2d.Facet] {
				return b.maps2.shardedFor(o.capacity(engine.DefaultMapCapacity(len(work), 0)))
			},
			run)
	default:
		return nil, errBadEngine
	}
	if err != nil {
		return nil, wrapErr(err)
	}
	res.Stats.CapacityRetries = retries
	res.Stats.MapFallback = fellBack
	res.Stats.PreHullBlocks = phBlocks
	res.Stats.PreHullKept = phKept
	if cap(b.verts2) < len(res.Vertices) {
		b.verts2 = make([]int, 0, len(res.Vertices))
	}
	verts := b.verts2[:0]
	for _, v := range res.Vertices {
		verts = append(verts, mapBack(v, order))
	}
	b.verts2 = verts
	b.res2 = Hull2DResult{Vertices: verts, Stats: res.Stats}
	return &b.res2, nil
}

// mapCache retains the ridge tables of Algorithm 3 across builds: the
// growable sharded map is re-zeroed shard-by-shard (buckets kept), and the
// fixed CAS/TAS tables are kept at their high-water capacity — including a
// table the degradation ladder doubled, so a Builder that once climbed the
// ladder starts every later build on the larger table it ended on.
type mapCache[V comparable] struct {
	sharded *conmap.ShardedMap[V]
	cas     *conmap.CASMap[V]
	casCap  int
	tas     *conmap.TASMap[V]
	tasCap  int
}

func (c *mapCache[V]) shardedFor(expected int) conmap.RidgeMap[V] {
	if c.sharded == nil {
		c.sharded = conmap.NewShardedMap[V](expected)
	} else {
		c.sharded.Reset()
	}
	return c.sharded
}

func (c *mapCache[V]) fixedFor(kind MapKind, expected int, inj *faultinject.Injector) conmap.RidgeMap[V] {
	if kind == MapTAS {
		if c.tas == nil || expected > c.tasCap {
			c.tas = conmap.NewTASMap[V](expected)
			c.tasCap = expected
		} else {
			c.tas.Reset()
		}
		return c.tas.Inject(inj)
	}
	if c.cas == nil || expected > c.casCap {
		c.cas = conmap.NewCASMap[V](expected)
		c.casCap = expected
	} else {
		c.cas.Reset()
	}
	return c.cas.Inject(inj)
}

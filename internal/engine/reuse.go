package engine

import (
	"parhull/internal/geom"
	"parhull/internal/hullstats"
)

// Reuse is the construction scaffold of a kernel: the state a construction
// runs on under every schedule, retained across constructions so that a warm
// one allocates essentially nothing. Each kernel's Reuse embeds one and keeps
// beside it only the buffers of its geometry. The scaffold owns
//
//   - Arena, which holds the base facets and, under Seq, every created facet
//     in creation order;
//   - the Pool of Par and Rounds: the work-stealing workers and one arena
//     per worker;
//   - Seq's pivot buckets and step buffers;
//   - the construction's Recorder (Rec) and the flat coordinates of its
//     points (Store).
//
// Its arenas are the only record of the facets a construction creates: Walk
// reads them back once, and Created lists them on request. Walk also counts
// the bytes the construction holds, which Snapshot reports with the
// recorder's counters.
//
// A Reuse serializes constructions, one at a time of any schedule. Begin
// starts each one by rewinding the last, so an aborted or panicked
// construction needs no cleanup, and what the last one created stays valid
// until the next Begin. Close retires the workers. The zero value is ready;
// a Reuse must not be copied once used.
type Reuse[FV any, R any] struct {
	// Rec comes first, apart from Store: every worker writes its atomic
	// counters, and every conflict filter reads Store's coordinate slice,
	// so the two must not share a cache line.
	Rec   hullstats.Recorder
	Arena Arena[FV]
	Store geom.PointStore

	pool Pool[FV, R]
	loop seqScratch[FV, R]

	// table is the ridge table of the Par or Rounds construction (nil under
	// Seq), which Walk counts; depths and bytes are what Walk read back, and
	// hist is the DepthHist storage Snapshot reuses.
	table  Table[FV, R]
	depths hullstats.Depths
	bytes  int64
	hist   []int
}

// Begin rewinds the scaffold for a construction over pts, whatever ran on it
// before. It empties the pool's arenas as well as its own, so a Seq walk
// lists its facets in creation order; it resets the recorder and loads the
// point store.
func (r *Reuse[FV, R]) Begin(pts []geom.Point) {
	if r.Arena.Alloc == nil {
		r.Arena.init()
	}
	r.Reset()
	r.Rec.Reset()
	r.Store.Load(pts)
	r.table = nil
}

// Walk hands every facet the construction created to visit, once, in the
// order of the record — the scaffold's own arena first, then the pool's
// worker arenas in worker order — a slab at a time, after tallying each
// facet of the slab by its depth. On the way it adds up the bytes the
// construction holds: the slabs and blocks each arena took from, the point
// store's coordinates and the ridge table's slots. It reads only the
// arenas, so it must run after the construction has quiesced; Snapshot
// then reports what it found.
func (r *Reuse[FV, R]) Walk(depth func(*FV) int32, visit func(slab []FV)) {
	r.depths.Reset()
	r.bytes = 8 * int64(len(r.Store.Coords()))
	if r.table != nil {
		r.bytes += r.table.Bytes()
	}
	walk := func(a *Arena[FV]) {
		r.bytes += a.usedBytes()
		for i := 0; i < a.usedSlabs; i++ {
			s := a.used(i)
			for j := range s {
				r.depths.Add(depth(&s[j]))
			}
			visit(s)
		}
	}
	walk(&r.Arena)
	for i := range r.pool.arenas {
		walk(&r.pool.arenas[i])
	}
}

// Snapshot assembles the Stats of the construction Walk read back: the
// recorder's counters, the depth tally and, as PeakBytes, the bytes Walk
// counted. Its DepthHist is the scaffold's, valid until the next Snapshot.
func (r *Reuse[FV, R]) Snapshot(rounds, hullSize int) hullstats.Stats {
	s := r.Rec.Snapshot(rounds, hullSize, r.depths, r.hist)
	r.hist = s.DepthHist
	s.PeakBytes = r.bytes
	return s
}

// Created lists every facet the construction created, in Walk's order. The
// list is made on each call, sized once from the arenas' facet counts; the
// facets it points to are recycled by the next Begin.
func (r *Reuse[FV, R]) Created() []*FV {
	n := r.Arena.Len()
	for i := range r.pool.arenas {
		n += r.pool.arenas[i].Len()
	}
	out := r.Arena.AppendFacets(make([]*FV, 0, n))
	for i := range r.pool.arenas {
		out = r.pool.arenas[i].AppendFacets(out)
	}
	return out
}

// Reset rewinds every arena now rather than at the next Begin, keeping
// their memory for the next construction. The facets of the last
// construction are recycled.
func (r *Reuse[FV, R]) Reset() {
	r.pool.Reset()
	r.Arena.Reset()
}

// Bytes returns the exact size of the facet slabs and int32 blocks the
// arenas retain for the next construction (Arena.Bytes).
func (r *Reuse[FV, R]) Bytes() int64 { return r.Arena.Bytes() + r.pool.Bytes() }

// Close retires the pool's workers. The Reuse must not be used again; what
// the last construction created stays valid.
func (r *Reuse[FV, R]) Close() { r.pool.Close() }

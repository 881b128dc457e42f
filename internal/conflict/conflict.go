// Package conflict implements the conflict-list operations shared by the
// incremental engines: merging the two support facets' conflict sets and
// filtering by visibility (line 16 of Algorithm 3, line 9 of Algorithm 2).
//
// Lists are ascending slices of point indices. Filtering is fused: a
// kernel-supplied Filter walks both lists with a two-pointer merge and
// classifies each candidate as it is merged (FilterMerge), so the candidate
// run is never materialized and the visibility test amortizes its bounds
// checks and dispatch over the batch instead of paying an indirect call per
// candidate. Long lists split into value-aligned pieces processed in
// parallel — the role approximate compaction plays in the paper's CRCW
// analysis (Theorem 5.4): without it, the first rounds' O(n)-sized lists
// would serialize the span.
//
// Allocation discipline: filtering writes into pooled scratch buffers and
// only the surviving elements are copied into an exact-size result (nil for
// an empty one). In the steady state most new facets have empty or tiny
// conflict sets, so filtering allocates nothing — the seed code allocated a
// |C(t1)|+|C(t2)|-capacity slice per facet regardless of survivors, which
// dominated GC pressure in the construction hot path.
package conflict

import (
	"sort"
	"sync"

	"parhull/internal/sched"
)

// DefaultGrain is the list size above which MergeFilterFused parallelizes.
const DefaultGrain = 1 << 13

// Filter is the batch form of a visibility predicate — the kernel contract
// of the fused merge-filter. Both methods append the surviving candidates to
// dst in ascending order and return the extended slice; they must be safe
// for concurrent calls (the engines' filters are: they read immutable facet
// state and bump sharded counters) and must not retain their list arguments
// or dst.
//
// The output must be identical to applying the pointwise predicate to each
// candidate in order — implementations that defer some decisions (e.g. the
// kernels' float-filter-uncertain sidecar resolved by the exact predicate
// after the main loop) must splice those survivors back in position.
type Filter interface {
	// FilterMerge appends to dst the elements of the ascending merge of c1
	// and c2 (excluding drop) that survive: the same survivors, in the same
	// order, as the pointwise predicate over MergeInto(nil, c1, c2, drop).
	// The hull kernels run the merge and the classification as ONE loop,
	// loading each candidate's coordinates while the merge cursors are
	// still hot.
	FilterMerge(c1, c2 []int32, drop int32, dst []int32) []int32
	// FilterRange appends to dst the survivors among the ascending
	// candidates from, from+1, ..., to-1 without materializing them
	// (initial conflict lists over the not-yet-inserted suffix).
	FilterRange(from, to int32, dst []int32) []int32
}

// MergeInto appends the ascending union of the ascending lists c1 and c2 to
// dst, excluding drop, and returns the extended slice: the candidate run a
// Filter's FilterMerge classifies, materialized. The engines never call it —
// fused filtering exists to avoid this pass — but it is the reference the
// FilterMerge contract and the kernel filter tests are stated against.
func MergeInto(dst []int32, c1, c2 []int32, drop int32) []int32 {
	i, j := 0, 0
	for i < len(c1) && j < len(c2) {
		v := c1[i]
		switch {
		case v < c2[j]:
			i++
		case v > c2[j]:
			v = c2[j]
			j++
		default:
			i++
			j++
		}
		if v != drop {
			dst = append(dst, v)
		}
	}
	for _, v := range c1[i:] {
		if v != drop {
			dst = append(dst, v)
		}
	}
	for _, v := range c2[j:] {
		if v != drop {
			dst = append(dst, v)
		}
	}
	return dst
}

// scratchPool recycles the transient merge buffers. Buffers grow to the
// largest list a worker has filtered and are reused across facets, so
// steady-state filtering performs no transient allocation at all.
var scratchPool = sync.Pool{New: func() any { return new([]int32) }}

// getScratch returns an empty buffer with capacity at least need.
func getScratch(need int) *[]int32 {
	bp := scratchPool.Get().(*[]int32)
	if cap(*bp) < need {
		*bp = make([]int32, 0, need)
	}
	*bp = (*bp)[:0]
	return bp
}

func putScratch(bp *[]int32) { scratchPool.Put(bp) }

// Scratch is a caller-owned survivor buffer for the serial path. The
// work-stealing engines keep one Scratch per worker (inside their arenas),
// so steady-state filtering touches no sync.Pool — no atomic pool round-trip
// per facet, and the buffer stays hot in the worker's cache. It grows to the
// largest list the worker has filtered and is reused forever; it never
// escapes: only the compacted result (allocated via alloc) does.
type Scratch struct {
	fbuf []int32
}

// MergeFilterFusedScratch is the serial merge-filter over a caller-owned
// Scratch: one FilterMerge call classifies the merge of the two lists
// directly into the scratch survivor buffer, and the survivors are compacted
// through alloc (nil selects plain make). flt is a type parameter so
// concrete kernel filters are passed without interface boxing — the hot path
// allocates nothing beyond the compacted result. Output is identical to
// MergeFilterFused with the same filter.
func MergeFilterFusedScratch[F Filter](s *Scratch, c1, c2 []int32, drop int32, flt F, alloc func(int) []int32) []int32 {
	need := len(c1) + len(c2)
	if need == 0 {
		return nil
	}
	if cap(s.fbuf) < need {
		s.fbuf = make([]int32, 0, need)
	}
	kept := flt.FilterMerge(c1, c2, drop, s.fbuf[:0])
	s.fbuf = kept[:0]
	return compactInto(kept, alloc)
}

// MergeFilterFused returns the survivors of flt over the ascending merge of
// c1 and c2, excluding drop: one FilterMerge call for lists shorter than
// grain (<= 0 selects DefaultGrain; pass a huge grain to force the serial
// path), value-aligned pieces filtered in parallel above it. The output is
// the same on every path. The survivor list is compacted through alloc (nil
// selects plain make); alloc is only ever called from the calling goroutine,
// so a per-worker arena is a valid source.
func MergeFilterFused[F Filter](c1, c2 []int32, drop int32, flt F, grain int, alloc func(int) []int32) []int32 {
	if grain <= 0 {
		grain = DefaultGrain
	}
	if len(c1)+len(c2) < grain || sched.Workers() == 1 {
		return mergeFilterFusedSerial(c1, c2, drop, flt, alloc)
	}
	return mergeFilterFusedParallel(c1, c2, drop, flt, grain, alloc)
}

func mergeFilterFusedSerial[F Filter](c1, c2 []int32, drop int32, flt F, alloc func(int) []int32) []int32 {
	if len(c1)+len(c2) == 0 {
		return nil
	}
	fp := getScratch(len(c1) + len(c2))
	*fp = flt.FilterMerge(c1, c2, drop, *fp)
	out := compactInto(*fp, alloc)
	putScratch(fp)
	return out
}

// mergeFilterFusedParallel splits both lists at common values so each piece
// runs one fused FilterMerge call, then concatenates the pieces in order.
func mergeFilterFusedParallel[F Filter](c1, c2 []int32, drop int32, flt F, grain int, alloc func(int) []int32) []int32 {
	pieces := pieceCount(len(c1)+len(c2), grain)
	if pieces < 2 {
		return mergeFilterFusedSerial(c1, c2, drop, flt, alloc)
	}
	spans := splitSpans(c1, c2, pieces)
	if spans == nil {
		return mergeFilterFusedSerial(c1, c2, drop, flt, alloc)
	}
	parts := make([]*[]int32, len(spans))
	sched.ParallelFor(len(spans), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s := spans[i]
			fp := getScratch((s.b1 - s.a1) + (s.b2 - s.a2))
			*fp = flt.FilterMerge(c1[s.a1:s.b1], c2[s.a2:s.b2], drop, *fp)
			parts[i] = fp
		}
	})
	return concatPartsInto(parts, alloc)
}

// compactInto copies buf into an exact-size slice from alloc (nil selects
// make), or returns nil for an empty buf.
func compactInto(buf []int32, alloc func(int) []int32) []int32 {
	if len(buf) == 0 {
		return nil
	}
	var out []int32
	if alloc != nil {
		out = alloc(len(buf))
	} else {
		out = make([]int32, len(buf))
	}
	copy(out, buf)
	return out
}

// span is one value-aligned piece of a parallel merge-filter: the half-open
// index ranges [a1, b1) of c1 and [a2, b2) of c2 holding the same value
// interval.
type span struct{ a1, b1, a2, b2 int }

// splitSpans cuts c1 and c2 at common split values sampled from the longer
// list at even intervals; binary search aligns both lists on the same value
// boundaries. When the sample stride collapses (pieces exceeding the longer
// list's length), the same value is sampled repeatedly; duplicate bounds are
// removed so no piece is empty on the longer list, and when fewer than 2
// distinct split values survive the split is pointless — splitSpans returns
// nil and the caller falls back to the serial path.
func splitSpans(c1, c2 []int32, pieces int) []span {
	long := c1
	if len(c2) > len(c1) {
		long = c2
	}
	bounds := make([]int32, 0, pieces-1)
	for i := 1; i < pieces; i++ {
		b := long[i*len(long)/pieces]
		if n := len(bounds); n == 0 || b > bounds[n-1] {
			bounds = append(bounds, b)
		}
	}
	if len(bounds) < 2 {
		return nil
	}
	spans := make([]span, 0, len(bounds)+1)
	p1, p2 := 0, 0
	for _, b := range bounds {
		q1 := p1 + sort.Search(len(c1)-p1, func(k int) bool { return c1[p1+k] >= b })
		q2 := p2 + sort.Search(len(c2)-p2, func(k int) bool { return c2[p2+k] >= b })
		spans = append(spans, span{p1, q1, p2, q2})
		p1, p2 = q1, q2
	}
	return append(spans, span{p1, len(c1), p2, len(c2)})
}

// pieceCount sizes a parallel split: one piece per grain of input, capped at
// 4x the worker count.
func pieceCount(total, grain int) int {
	pieces := total / grain
	if w := 4 * sched.Workers(); pieces > w {
		pieces = w
	}
	return pieces
}

// concatPartsInto concatenates the per-piece scratch buffers in order into a
// slice carved via alloc (nil selects plain make) and returns the buffers to
// the pool.
func concatPartsInto(parts []*[]int32, alloc func(int) []int32) []int32 {
	n := 0
	for _, p := range parts {
		n += len(*p)
	}
	var out []int32
	if n > 0 {
		if alloc != nil {
			out = alloc(n)[:0]
		} else {
			out = make([]int32, 0, n)
		}
		for _, p := range parts {
			out = append(out, *p...)
		}
	}
	for _, p := range parts {
		putScratch(p)
	}
	return out
}

// BuildFilterInto constructs a conflict list from scratch: the survivors of
// flt among [from, to), ascending, computed in parallel chunks of grain
// (<= 0 selects DefaultGrain). Each chunk is one FilterRange call streaming
// the candidate range directly, with no per-point dispatch and no
// materialized candidate slice. It builds the initial facets' lists over all
// remaining points; the result is carved via alloc (nil selects plain make)
// — the pooled engines pass an arena allocator so the initial conflict lists
// recycle across constructions. alloc is called only from the calling
// goroutine.
func BuildFilterInto[F Filter](from, to int32, flt F, grain int, alloc func(int) []int32) []int32 {
	n := int(to - from)
	if n <= 0 {
		return nil
	}
	if grain <= 0 {
		grain = DefaultGrain
	}
	if n < grain || sched.Workers() == 1 {
		bp := getScratch(n)
		*bp = flt.FilterRange(from, to, *bp)
		out := compactInto(*bp, alloc)
		putScratch(bp)
		return out
	}
	chunks := (n + grain - 1) / grain
	parts := make([]*[]int32, chunks)
	sched.ParallelFor(chunks, 1, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			a := from + int32(c*grain)
			b := a + int32(grain)
			if b > to {
				b = to
			}
			bp := getScratch(int(b - a))
			*bp = flt.FilterRange(a, b, *bp)
			parts[c] = bp
		}
	})
	return concatPartsInto(parts, alloc)
}

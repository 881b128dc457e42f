// Package conflict implements the conflict-list operations shared by the
// incremental engines: merging the two support facets' conflict sets and
// filtering by visibility (line 16 of Algorithm 3, line 9 of Algorithm 2).
//
// Lists are ascending slices of point indices. Filtering is fused: a Filter
// walks both lists with a two-pointer merge and classifies each candidate as
// it is merged (FilterMerge), so the candidate run is never materialized and
// the visibility test amortizes its bounds checks and dispatch over the
// batch instead of paying an indirect call per candidate. The one Filter
// the engines use is PlaneFilter (plane.go): every kernel's conflict test is
// the sign of one folded plane — a hull facet's hyperplane or a Delaunay
// triangle's lifted circumcircle plane — so the scan is written once here,
// over the dimension-specialized evaluators of scan.go, and a kernel only
// supplies a PlaneKernel: its coordinate stream, one facet's row, and the
// exact predicate for the uncertain band. Long lists split into
// value-aligned pieces processed in parallel — the role approximate
// compaction plays in the paper's CRCW analysis (Theorem 5.4): without it,
// the first rounds' O(n)-sized lists would serialize the span.
//
// Allocation discipline: filtering writes into scratch buffers — the
// caller's Scratch on the serial path, pooled buffers for parallel pieces
// and initial lists — and only the surviving elements are copied into an
// exact-size result from the caller's allocator (nil for an empty one). In
// the steady state most new facets have empty or tiny conflict sets, so
// filtering allocates nothing — the seed code allocated a
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

// Filter is the batch form of a visibility predicate — the contract of the
// fused merge-filter entry points. Both methods append the surviving
// candidates to dst in ascending order and return the extended slice; they
// must be safe for concurrent calls (PlaneFilter is: it reads immutable
// facet state and bumps sharded counters) and must not retain their list
// arguments or dst.
//
// The output must be identical to applying the pointwise predicate to each
// candidate in order — implementations that defer some decisions (e.g.
// PlaneFilter's float-filter-uncertain sidecar resolved by the exact
// predicate after the main loop) must splice those survivors back in
// position.
type Filter interface {
	// FilterMerge appends to dst the elements of the ascending merge of c1
	// and c2 (excluding drop) that survive: the same survivors, in the same
	// order, as the pointwise predicate over MergeInto(nil, c1, c2, drop).
	// PlaneFilter runs the merge and the classification as ONE chunked
	// loop, loading each candidate's coordinates while the merge cursors
	// are still hot.
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

// scratchPool recycles the transient buffers of parallel pieces and initial
// lists. Buffers grow to the largest piece filtered and are reused, so
// those paths perform no transient allocation in the steady state either.
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
// largest list the worker has filtered serially and is reused forever; it
// never escapes: only the compacted result (allocated via alloc) does.
type Scratch struct {
	fbuf []int32
}

// MergeFilterFused implements line 16 of Algorithm 3 (and line 9 of
// Algorithm 2): it returns the survivors of flt over the ascending merge of
// c1 and c2, excluding drop, compacted into an exact-size slice from alloc
// (nil when none survives). Lists at least grain long (<= 0 selects
// DefaultGrain; pass a huge grain to force the serial path) filter in
// value-aligned pieces in parallel; every other list — the steady state, and
// every list on one worker or whose split values collapse — is one
// FilterMerge call into the caller's Scratch. The output, and the multiset
// of predicate calls, is the same on every path. flt is a type parameter so
// concrete kernel filters are passed without interface boxing: the serial
// path allocates nothing beyond the result. alloc is only ever called from
// the calling goroutine, so a per-worker arena is a valid source.
func MergeFilterFused[F Filter](s *Scratch, c1, c2 []int32, drop int32, flt F, grain int, alloc func(int) []int32) []int32 {
	if grain <= 0 {
		grain = DefaultGrain
	}
	need := len(c1) + len(c2)
	if need >= grain && sched.Workers() > 1 {
		if pieces := pieceCount(need, grain); pieces >= 2 {
			if spans := splitSpans(c1, c2, pieces); spans != nil {
				return mergeFilterFusedParallel(spans, c1, c2, drop, flt, alloc)
			}
		}
	}
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

// mergeFilterFusedParallel runs one fused FilterMerge call per value-aligned
// span of c1 and c2, each into a pooled buffer, then concatenates the pieces
// in order.
func mergeFilterFusedParallel[F Filter](spans []span, c1, c2 []int32, drop int32, flt F, alloc func(int) []int32) []int32 {
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

// compactInto copies buf into an exact-size slice from alloc, or returns nil
// for an empty buf.
func compactInto(buf []int32, alloc func(int) []int32) []int32 {
	if len(buf) == 0 {
		return nil
	}
	out := alloc(len(buf))
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
// slice carved via alloc (nil when every piece is empty) and returns the
// buffers to the pool.
func concatPartsInto(parts []*[]int32, alloc func(int) []int32) []int32 {
	n := 0
	for _, p := range parts {
		n += len(*p)
	}
	var out []int32
	if n > 0 {
		out = alloc(n)[:0]
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
// remaining points; the result is carved via alloc — the engines pass an
// arena allocator so the initial conflict lists recycle across
// constructions. alloc is called only from the calling goroutine.
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

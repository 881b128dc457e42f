package hull2d

import (
	"parhull/internal/conflict"
	"parhull/internal/faultinject"
	"parhull/internal/geom"
)

// This file implements the kernel's batch visibility filter — the
// conflict.Filter side of the fused merge/filter (DESIGN.md §4.3). Where the
// pointwise predicate decides one point per call, the filters stream a whole
// candidate run through the cached-line dot product in tight loops over the
// flat point store, using the dimension-specialized kernels in
// internal/conflict (DESIGN.md §4.7): scattered candidate lists unroll four
// inlined conflict.Eval2 calls per step, so four independent coordinate
// gathers are in flight at once with no call overhead. Lines are stored
// folded in the facet (initPlane) — positive certifies visible — so no
// per-test negation is needed and every classification stays bit-identical
// to the pointwise path. Candidates the static filter cannot certify are
// collected into a small sidecar and resolved by the exact Orient2D
// predicate after the loop, then value-merged back into position, so the
// survivor list is byte-identical to the pointwise path (asserted by
// TestBatchFilterMatchesClosure and TestFilterMergeMatchesPointwise).
//
// Escape discipline: the sidecar and the merge chunk live in fixed-size
// stack buffers; the conflict kernels are pure evaluation and every append
// stays in this file, so steady-state filtering performs no heap
// allocation (enforced by the reuse allocs gate).

// uncertainCap is the stack capacity of the per-batch uncertain sidecar. On
// random inputs the static filter certifies essentially every test, so the
// sidecar almost never spills; adversarially collinear inputs overflow into
// a heap append, which is correct and merely slower.
const uncertainCap = 24

// mergeChunk is the stack capacity of the fused merge's candidate chunk:
// the two-pointer merge deposits up to this many surviving candidates, then
// one four-wide classification pass consumes them.
const mergeChunk = 64

// facetFilter binds the engine and one edge as the batch filter of that
// edge's visibility predicate. It is passed by value through the generic
// merge-filter entry points, so the hot path performs no interface boxing.
type facetFilter struct {
	e *engine
	f *Facet
}

// FilterRange implements conflict.Filter.
func (ff facetFilter) FilterRange(from, to int32, dst []int32) []int32 {
	return ff.e.filterVisibleRange(ff.f, from, to, dst)
}

// FilterMerge implements conflict.Filter.
func (ff facetFilter) FilterMerge(c1, c2 []int32, drop int32, dst []int32) []int32 {
	return ff.e.filterVisibleMerge(ff.f, c1, c2, drop, dst)
}

// lineRow returns f's folded line for the batch scan. ok=false means the
// line cache is off: the caller must run the exact predicate.
func (e *engine) lineRow(f *Facet) (n0, n1, off, eps float64, ok bool) {
	if e.planeEps <= 0 {
		return 0, 0, 0, 0, false
	}
	return f.nx, f.ny, f.off, e.planeEps, true
}

// filterVisibleRange appends to dst the candidates among [from, to) visible
// from f, in order, with the pointwise path's counter totals (tests counted
// per batch, fallbacks per sidecar entry). The store rows stream
// sequentially, so the offset advances by the stride instead of being
// recomputed per point, and the hardware prefetcher hides the latency.
func (e *engine) filterVisibleRange(f *Facet, from, to int32, dst []int32) []int32 {
	if to <= from {
		return dst
	}
	e.inj.Visit(faultinject.SiteScanBatch)
	e.rec.VTests.Add(uint64(from), int64(to-from))
	n0, n1, off, eps, ok := e.lineRow(f)
	if !ok {
		for v := from; v < to; v++ {
			if e.exactVisible(v, f) {
				dst = append(dst, v)
			}
		}
		return dst
	}
	base := len(dst)
	var ubuf [uncertainCap]int32
	uncertain := ubuf[:0]
	c := e.store.Coords()
	o := int(from) * 2
	for v := from; v < to; v++ {
		x := c[o : o+2 : o+2]
		o += 2
		s := n0*x[0] + n1*x[1] - off
		if s > eps {
			dst = append(dst, v)
		} else if s >= -eps {
			uncertain = append(uncertain, v)
		}
	}
	if len(uncertain) == 0 {
		return dst
	}
	return e.resolveUncertain(f, dst, base, uncertain)
}

// filterVisibleMerge fuses the ascending merge of two conflict lists with
// the visibility classification, chunked like the hulld 3D path: the scalar
// two-pointer merge deposits surviving candidates into a stack buffer and
// each full (or final) chunk is consumed by the four-wide kernel, so the
// merged run is never written to allocated scratch and re-read. Survivors,
// order, and counter totals are identical to the pointwise predicate over
// MergeInto(nil, c1, c2, drop).
func (e *engine) filterVisibleMerge(f *Facet, c1, c2 []int32, drop int32, dst []int32) []int32 {
	if len(c1)+len(c2) == 0 {
		return dst
	}
	e.inj.Visit(faultinject.SiteScanBatch)
	// The shard key only selects a counter stripe (Load sums all stripes),
	// so any key gives the same totals.
	var key uint64
	if len(c1) > 0 {
		key = uint64(c1[0])
	} else {
		key = uint64(c2[0])
	}
	var tested int64
	n0, n1, off, eps, ok := e.lineRow(f)
	if !ok {
		i, j := 0, 0
		for i < len(c1) && j < len(c2) {
			v := c1[i]
			if v < c2[j] {
				i++
			} else if v > c2[j] {
				v = c2[j]
				j++
			} else {
				i++
				j++
			}
			if v == drop {
				continue
			}
			tested++
			if e.exactVisible(v, f) {
				dst = append(dst, v)
			}
		}
		tail := c1[i:]
		if j < len(c2) {
			tail = c2[j:]
		}
		for _, v := range tail {
			if v == drop {
				continue
			}
			tested++
			if e.exactVisible(v, f) {
				dst = append(dst, v)
			}
		}
		if tested > 0 {
			e.rec.VTests.Add(key, tested)
		}
		return dst
	}
	base := len(dst)
	var ubuf [uncertainCap]int32
	uncertain := ubuf[:0]
	c := e.store.Coords()
	var buf [mergeChunk]int32
	i, j := 0, 0
	for {
		// Fill the chunk: merge head while both lists remain, then drain
		// whichever tail is left. Only non-drop candidates are deposited,
		// so tested advances by exactly the chunk fill.
		m := 0
		for m < mergeChunk && i < len(c1) && j < len(c2) {
			v := c1[i]
			if v < c2[j] {
				i++
			} else if v > c2[j] {
				v = c2[j]
				j++
			} else {
				i++
				j++
			}
			if v == drop {
				continue
			}
			buf[m] = v
			m++
		}
		if m < mergeChunk {
			for m < mergeChunk && i < len(c1) {
				if v := c1[i]; v != drop {
					buf[m] = v
					m++
				}
				i++
			}
			for m < mergeChunk && j < len(c2) {
				if v := c2[j]; v != drop {
					buf[m] = v
					m++
				}
				j++
			}
		}
		if m == 0 {
			break
		}
		tested += int64(m)
		q := buf[:m]
		k := 0
		for ; k+4 <= m; k += 4 {
			g := q[k : k+4 : k+4]
			s0 := conflict.Eval2(c, g[0], n0, n1, off)
			s1 := conflict.Eval2(c, g[1], n0, n1, off)
			s2 := conflict.Eval2(c, g[2], n0, n1, off)
			s3 := conflict.Eval2(c, g[3], n0, n1, off)
			if s0 > eps {
				dst = append(dst, g[0])
			} else if s0 >= -eps {
				uncertain = append(uncertain, g[0])
			}
			if s1 > eps {
				dst = append(dst, g[1])
			} else if s1 >= -eps {
				uncertain = append(uncertain, g[1])
			}
			if s2 > eps {
				dst = append(dst, g[2])
			} else if s2 >= -eps {
				uncertain = append(uncertain, g[2])
			}
			if s3 > eps {
				dst = append(dst, g[3])
			} else if s3 >= -eps {
				uncertain = append(uncertain, g[3])
			}
		}
		for _, v := range q[k:] {
			s := conflict.Eval2(c, v, n0, n1, off)
			if s > eps {
				dst = append(dst, v)
			} else if s >= -eps {
				uncertain = append(uncertain, v)
			}
		}
		if m < mergeChunk {
			break
		}
	}
	if tested > 0 {
		e.rec.VTests.Add(key, tested)
	}
	if len(uncertain) == 0 {
		return dst
	}
	return e.resolveUncertain(f, dst, base, uncertain)
}

// resolveUncertain decides a batch's line-uncertain candidates with the
// exact predicate and splices the survivors back into dst[base:]. The
// certain survivors and the uncertain survivors are disjoint ascending
// subsequences of the same candidate run, so a backward merge by value
// restores the ascending order in place.
func (e *engine) resolveUncertain(f *Facet, dst []int32, base int, uncertain []int32) []int32 {
	e.rec.Fallbacks.Add(uint64(uncertain[0]), int64(len(uncertain)))
	kept := uncertain[:0]
	for _, v := range uncertain {
		if e.exactVisible(v, f) {
			kept = append(kept, v)
		}
	}
	if len(kept) == 0 {
		return dst
	}
	i := len(dst) - 1
	dst = append(dst, kept...)
	w := len(dst) - 1
	for j := len(kept) - 1; j >= 0; {
		if i >= base && dst[i] > kept[j] {
			dst[w] = dst[i]
			i--
		} else {
			dst[w] = kept[j]
			j--
		}
		w--
	}
	return dst
}

// exactVisible is the exact visibility predicate with no counting — the
// batch filters' exact path and uncertain-sidecar resolution (both count
// before calling it).
func (e *engine) exactVisible(v int32, f *Facet) bool {
	return geom.Orient2D(e.pts[f.A], e.pts[f.B], e.pts[v]) < 0
}

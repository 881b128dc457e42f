package hulld

import (
	"os"
	"sync/atomic"

	"parhull/internal/conflict"
	"parhull/internal/faultinject"
)

// This file implements the kernel's batch visibility filter — the
// conflict.Filter side of the fused merge/filter (DESIGN.md §4.3). Where the
// pointwise predicate decides one point per call, the filters stream a whole
// candidate run through the cached-plane dot product in tight loops over the
// flat point store, using the dimension-specialized kernels in
// internal/conflict (DESIGN.md §4.7): the 3D path unrolls four inlined
// conflict.Eval3 calls per step, so four independent coordinate gathers are
// in flight at once with no call overhead — on large inputs the scan is
// bound by those loads. Planes are stored folded in the facet (makeFacet)
// and every kernel reproduces geom.Plane.Eval's summation order exactly, so
// classification — including which candidates land in the uncertain band —
// is bit-identical to the pointwise path. Candidates the static filter
// cannot certify are collected into a small sidecar and resolved by the
// exact predicate only after the loop, then value-merged back into position,
// so the survivor list is byte-identical to the pointwise path (asserted by
// TestBatchFilterMatchesClosure and TestFilterMergeMatchesPointwise).
//
// Escape discipline: the sidecar and the merge chunk live in fixed-size
// stack buffers. The conflict kernels are pure evaluation (they never
// retain or return their slice arguments), and classification appends stay
// in this file, so neither buffer escapes — steady-state filtering performs
// zero heap allocations, which the reuse allocs gate enforces.

// uncertainCap is the stack capacity of the per-batch uncertain sidecar. On
// random inputs the static filter certifies essentially every test, so the
// sidecar almost never spills; adversarially flat inputs overflow into a
// heap append, which is correct and merely slower.
const uncertainCap = 24

// mergeChunk is the stack capacity of the fused merge's candidate chunk:
// the two-pointer merge deposits up to this many surviving candidates, then
// one four-wide classification pass consumes them. Chunking is what lets
// EVERY merged candidate — not just list tails — go through the four-wide
// kernel while the merge itself stays a simple scalar loop.
const mergeChunk = 64

// facetFilter binds the engine and one facet as the batch filter of that
// facet's visibility predicate. It is passed by value through the generic
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

// planeRow returns f's folded plane for the batch scan. ok=false means no
// plane cache: the caller must run the exact predicate.
func (e *engine) planeRow(f *Facet) (n []float64, off, eps float64, ok bool) {
	if !f.plane.Valid() {
		return nil, 0, 0, false
	}
	d := f.plane.Dim()
	return f.plane.N[:d:d], f.plane.Off, f.plane.Eps, true
}

// filterVisibleRange appends to dst the candidates among [from, to) visible
// from f, in order, with the pointwise path's counter totals (tests counted
// per batch, fallbacks per sidecar entry). The store rows stream
// sequentially, so the offset advances by the stride instead of being
// recomputed per point, and the hardware prefetcher — not gather
// parallelism — hides the latency.
func (e *engine) filterVisibleRange(f *Facet, from, to int32, dst []int32) []int32 {
	if to <= from {
		return dst
	}
	e.inj.Visit(faultinject.SiteScanBatch)
	e.rec.VTests.Add(uint64(from), int64(to-from))
	n, off, eps, ok := e.planeRow(f)
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
	if len(n) == 3 {
		n0, n1, n2 := n[0], n[1], n[2]
		o := int(from) * 3
		for v := from; v < to; v++ {
			x := c[o : o+3 : o+3]
			o += 3
			s := n0*x[0] + n1*x[1] + n2*x[2] - off
			if s > eps {
				dst = append(dst, v)
			} else if s >= -eps {
				uncertain = append(uncertain, v)
			}
		}
	} else if len(n) == 2 {
		n0, n1 := n[0], n[1]
		for v := from; v < to; v++ {
			s := conflict.Eval2(c, v, n0, n1, off)
			if s > eps {
				dst = append(dst, v)
			} else if s >= -eps {
				uncertain = append(uncertain, v)
			}
		}
	} else {
		for v := from; v < to; v++ {
			s := conflict.EvalD(c, n, v, off)
			if s > eps {
				dst = append(dst, v)
			} else if s >= -eps {
				uncertain = append(uncertain, v)
			}
		}
	}
	if len(uncertain) == 0 {
		return dst
	}
	return e.resolveUncertain(f, dst, base, uncertain)
}

// filterVisibleMerge fuses the ascending merge of two conflict lists with
// the visibility classification. The 3D path runs in chunks: the scalar
// two-pointer merge deposits surviving candidates into a stack buffer, and
// each full (or final) chunk is consumed by the four-wide kernel — so the
// merged run is never written to allocated scratch and re-read, yet every
// candidate still gets the four-wide treatment. Survivors, order, and
// counter totals are identical to the pointwise predicate over
// MergeInto(nil, c1, c2, drop): the merge produces the same ascending
// deduplicated sequence, each element funnels through the same plane test,
// and the uncertain sidecar resolves the same way.
func (e *engine) filterVisibleMerge(f *Facet, c1, c2 []int32, drop int32, dst []int32) []int32 {
	if len(c1)+len(c2) == 0 {
		return dst
	}
	e.inj.Visit(faultinject.SiteScanBatch)
	// Any shard key works for the per-batch counter adds: the key only
	// selects a stripe and Load sums all stripes.
	var key uint64
	if len(c1) > 0 {
		key = uint64(c1[0])
	} else {
		key = uint64(c2[0])
	}
	var tested int64
	n, off, eps, ok := e.planeRow(f)
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
	if len(n) == 3 {
		n0, n1, n2 := n[0], n[1], n[2]
		var buf [mergeChunk]int32
		i, j := 0, 0
		for {
			// Fill the chunk: merge head while both lists remain, then
			// drain whichever tail is left. Only non-drop candidates are
			// deposited, so tested advances by exactly the chunk fill.
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
				s0 := conflict.Eval3(c, g[0], n0, n1, n2, off)
				s1 := conflict.Eval3(c, g[1], n0, n1, n2, off)
				s2 := conflict.Eval3(c, g[2], n0, n1, n2, off)
				s3 := conflict.Eval3(c, g[3], n0, n1, n2, off)
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
				s := conflict.Eval3(c, v, n0, n1, n2, off)
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
	} else {
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
			s := evalGen(c, n, v, off)
			if s > eps {
				dst = append(dst, v)
			} else if s >= -eps {
				uncertain = append(uncertain, v)
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
			s := evalGen(c, n, v, off)
			if s > eps {
				dst = append(dst, v)
			} else if s >= -eps {
				uncertain = append(uncertain, v)
			}
		}
	}
	if tested > 0 {
		e.rec.VTests.Add(key, tested)
	}
	if len(uncertain) != 0 {
		dst = e.resolveUncertain(f, dst, base, uncertain)
	}
	return plantDrop(dst, base)
}

// soakPlant, when set, makes the fused merge filter silently drop the last
// surviving candidate of every batch — a deliberately planted scan-kernel
// defect used to prove the independent output certifier catches real bugs
// end to end (soak violation, bit-for-bit replay, shrink). Armed only by the
// hidden PARHULL_SOAK_PLANT environment flag or, in-process, by PlantSoakBug
// (cmd/hullsoak tests). Atomic so workers retained by a Builder observe
// toggles without a data race.
var soakPlant atomic.Bool

func init() {
	if os.Getenv("PARHULL_SOAK_PLANT") == "drop-candidate" {
		soakPlant.Store(true)
	}
}

// PlantSoakBug toggles the planted scan defect (soak-rig tests only).
func PlantSoakBug(on bool) { soakPlant.Store(on) }

// plantDrop applies the planted defect to a finished batch: the survivors
// dst[base:] lose their last element.
func plantDrop(dst []int32, base int) []int32 {
	if soakPlant.Load() && len(dst) > base {
		return dst[:len(dst)-1]
	}
	return dst
}

// evalGen evaluates the folded plane at point v for the non-3D fused merge:
// the 2D specialization or the generic strided product, each matching
// geom.Plane.Eval's summation order for its dimension.
func evalGen(c, n []float64, v int32, off float64) float64 {
	if len(n) == 2 {
		return conflict.Eval2(c, v, n[0], n[1], off)
	}
	return conflict.EvalD(c, n, v, off)
}

// resolveUncertain decides a batch's plane-uncertain candidates with the
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

package conflict

import (
	"os"
	"sync/atomic"

	"parhull/internal/faultinject"
	"parhull/internal/hullstats"
)

// This file implements the one batch visibility filter every plane kernel
// runs: hull facets in any dimension and Delaunay triangles alike decide a
// conflict by the sign of one folded plane, N·x - off, over a flat
// coordinate stream, so the conflict test is the only per-kernel primitive
// and the scan around it lives here once. A kernel supplies a PlaneKernel —
// its coordinate stream, one facet's folded row, its recorder and injector,
// and the exact predicate — and PlaneFilter implements Filter over it.
//
// Where the pointwise predicate decides one point per call, the scan streams
// a whole candidate run through the row in tight loops, using the
// dimension-specialized evaluators of scan.go: strides 2 and 3 unroll four
// inlined Eval2/Eval3 calls per step, so four independent coordinate
// gathers are in flight at once with no call overhead; other strides use
// EvalD; no row runs the exact predicate on every candidate. Every loop
// reproduces geom.Plane.Eval's summation order, so classification —
// including which candidates land in the uncertain band — is bit-identical
// to the pointwise path. Candidates the static filter cannot certify are
// collected into a small sidecar and resolved by the exact predicate only
// after the loop, then value-merged back into position, so the survivor
// list is byte-identical to the pointwise path (asserted by
// TestPlaneFilterMatchesPointwise here and by each kernel's
// TestFilterMergeMatchesPointwise).
//
// Escape discipline: the sidecar and the merge chunk live in fixed-size
// stack buffers. The evaluators are pure, the PlaneKernel's methods never
// see either buffer, and every append stays in this file, so neither
// buffer escapes — steady-state filtering performs zero heap allocations
// (TestPlaneFilterAllocs, and the reuse allocs gate end to end).

// UncertainCap is the stack capacity of a batch's uncertain sidecar. On
// random inputs the static filter certifies essentially every test, so the
// sidecar almost never spills; adversarially flat inputs overflow into a
// heap append, which is correct and merely slower.
const UncertainCap = 24

// MergeChunk is the stack capacity of the fused merge's candidate chunk:
// the two-pointer merge deposits up to this many surviving candidates, then
// one classification pass consumes them. Chunking is what lets EVERY merged
// candidate — not just list tails — go through the four-wide loops while
// the merge itself stays a simple scalar loop.
const MergeChunk = 64

// PlaneKernel binds one facet of a plane kernel for the batch scan. It is a
// small value (the kernels pass {engine, facet}). Everything the scan reads
// besides the exact predicate comes from one Row call per batch: each call
// through the type parameter is an indirect call, and batches are often a
// handful of candidates.
type PlaneKernel interface {
	// Row returns the flat coordinate stream c, in which candidate v's
	// coordinates are c[v*s : v*s+s] for the stride s = len(n); the
	// facet's folded plane, where n·x - off > eps certifies a conflict,
	// < -eps certifies none, and the band between is decided by Exact (an
	// empty n means no plane: every candidate goes to Exact); the recorder
	// that counts tests and fallbacks; and the fault injector visited once
	// per batch (nil in production and for kernels without a scan-batch
	// site).
	Row() (c, n []float64, off, eps float64, rec *hullstats.Recorder, inj *faultinject.Injector)
	// Exact is the exact conflict predicate, uncounted.
	Exact(v int32) bool
}

// PlaneFilter is the Filter of one facet's conflict predicate: the shared
// batch scan over the kernel's folded row. It is passed by value through
// the generic merge-filter entry points, so the hot path performs no
// interface boxing.
type PlaneFilter[K PlaneKernel] struct{ K K }

// FilterRange implements Filter: the candidates among [from, to) in
// conflict with the facet, in order, with the pointwise path's counter
// totals (tests counted per batch, fallbacks per sidecar entry). The rows
// stream sequentially, so the offset advances by the stride instead of
// being recomputed per point, and the hardware prefetcher hides the latency.
func (p PlaneFilter[K]) FilterRange(from, to int32, dst []int32) []int32 {
	if to <= from {
		return dst
	}
	c, n, off, eps, rec, inj := p.K.Row()
	inj.Visit(faultinject.SiteScanBatch)
	rec.VTests.Add(uint64(from), int64(to-from))
	base := len(dst)
	var ubuf [UncertainCap]int32
	uncertain := ubuf[:0]
	switch len(n) {
	case 0:
		for v := from; v < to; v++ {
			if p.K.Exact(v) {
				dst = append(dst, v)
			}
		}
		return dst
	case 3:
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
	case 2:
		n0, n1 := n[0], n[1]
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
	default:
		for v := from; v < to; v++ {
			s := EvalD(c, n, v, off)
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
	return p.resolve(rec, dst, base, uncertain)
}

// FilterMerge implements Filter, fusing the ascending merge of two conflict
// lists with the classification. It runs in chunks: the scalar two-pointer
// merge deposits candidates into a stack buffer, and each full (or final)
// chunk is classified by the row's stride — so the merged run is never
// written to allocated scratch and re-read, yet every candidate still gets
// the four-wide treatment. Survivors, order, and counter totals are
// identical to the pointwise predicate over MergeInto(nil, c1, c2, drop):
// the merge produces the same ascending deduplicated sequence, each element
// funnels through the same plane test, and the uncertain sidecar resolves
// the same way.
func (p PlaneFilter[K]) FilterMerge(c1, c2 []int32, drop int32, dst []int32) []int32 {
	if len(c1)+len(c2) == 0 {
		return dst
	}
	c, n, off, eps, rec, inj := p.K.Row()
	inj.Visit(faultinject.SiteScanBatch)
	// Any shard key works for the per-batch counter adds: the key only
	// selects a stripe and Load sums all stripes.
	var key uint64
	if len(c1) > 0 {
		key = uint64(c1[0])
	} else {
		key = uint64(c2[0])
	}
	var n0, n1, n2 float64
	switch len(n) {
	case 3:
		n0, n1, n2 = n[0], n[1], n[2]
	case 2:
		n0, n1 = n[0], n[1]
	}
	base := len(dst)
	var ubuf [UncertainCap]int32
	uncertain := ubuf[:0]
	var buf [MergeChunk]int32
	var tested int64
	i, j := 0, 0
	for {
		// Fill the chunk: merge head while both lists remain, then drain
		// whichever tail is left. Only non-drop candidates are deposited,
		// so tested advances by exactly the chunk fill.
		m := 0
		for m < MergeChunk && i < len(c1) && j < len(c2) {
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
		if m < MergeChunk {
			for m < MergeChunk && i < len(c1) {
				if v := c1[i]; v != drop {
					buf[m] = v
					m++
				}
				i++
			}
			for m < MergeChunk && j < len(c2) {
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
		switch len(n) {
		case 0:
			for _, v := range q {
				if p.K.Exact(v) {
					dst = append(dst, v)
				}
			}
		case 3:
			h := 0
			for ; h+4 <= m; h += 4 {
				g := q[h : h+4 : h+4]
				s0 := Eval3(c, g[0], n0, n1, n2, off)
				s1 := Eval3(c, g[1], n0, n1, n2, off)
				s2 := Eval3(c, g[2], n0, n1, n2, off)
				s3 := Eval3(c, g[3], n0, n1, n2, off)
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
			for _, v := range q[h:] {
				s := Eval3(c, v, n0, n1, n2, off)
				if s > eps {
					dst = append(dst, v)
				} else if s >= -eps {
					uncertain = append(uncertain, v)
				}
			}
		case 2:
			h := 0
			for ; h+4 <= m; h += 4 {
				g := q[h : h+4 : h+4]
				s0 := Eval2(c, g[0], n0, n1, off)
				s1 := Eval2(c, g[1], n0, n1, off)
				s2 := Eval2(c, g[2], n0, n1, off)
				s3 := Eval2(c, g[3], n0, n1, off)
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
			for _, v := range q[h:] {
				s := Eval2(c, v, n0, n1, off)
				if s > eps {
					dst = append(dst, v)
				} else if s >= -eps {
					uncertain = append(uncertain, v)
				}
			}
		default:
			for _, v := range q {
				s := EvalD(c, n, v, off)
				if s > eps {
					dst = append(dst, v)
				} else if s >= -eps {
					uncertain = append(uncertain, v)
				}
			}
		}
		if m < MergeChunk {
			break
		}
	}
	if tested > 0 {
		rec.VTests.Add(key, tested)
	}
	if len(uncertain) != 0 {
		dst = p.resolve(rec, dst, base, uncertain)
	}
	return plantDrop(dst, base)
}

// resolve decides a batch's plane-uncertain candidates with the exact
// predicate, counting each as a fallback in rec, and splices the survivors
// back into dst[base:]. The certain survivors and the uncertain survivors
// are disjoint ascending subsequences of the same candidate run, so a
// backward merge by value restores the ascending order in place.
func (p PlaneFilter[K]) resolve(rec *hullstats.Recorder, dst []int32, base int, uncertain []int32) []int32 {
	rec.Fallbacks.Add(uint64(uncertain[0]), int64(len(uncertain)))
	kept := uncertain[:0]
	for _, v := range uncertain {
		if p.K.Exact(v) {
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

// soakPlant, when set, makes every FilterMerge silently drop the last
// surviving candidate of its batch — a deliberately planted scan defect
// used to prove the independent output certifier catches real bugs end to
// end (soak violation, bit-for-bit replay, shrink). FilterRange is never
// touched. Armed only by the hidden PARHULL_SOAK_PLANT environment flag or,
// in-process, by PlantSoakBug (cmd/hullsoak tests); when armed it fires for
// every plane kernel. Atomic so workers retained by a Builder observe
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

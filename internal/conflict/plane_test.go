package conflict

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"parhull/internal/faultinject"
	"parhull/internal/hullstats"
)

// rowKernel is a synthetic PlaneKernel: a random coordinate stream of the
// row's stride and an exact predicate unrelated to the row's sign (indices
// not divisible by 3), so a sidecar survivor spliced into the wrong place,
// or a candidate sent down the wrong branch, changes the survivor list.
type rowKernel struct {
	c        []float64
	n        []float64
	off, eps float64
	rec      *hullstats.Recorder
}

func (k rowKernel) Row() (c, n []float64, off, eps float64, rec *hullstats.Recorder, inj *faultinject.Injector) {
	return k.c, k.n, k.off, k.eps, k.rec, nil
}

func (k rowKernel) Exact(v int32) bool { return v%3 != 0 }

func (k rowKernel) filter() PlaneFilter[rowKernel] { return PlaneFilter[rowKernel]{K: k} }

func (k rowKernel) eval(v int32) float64 { return evalRef(k.c, k.n, v, k.off) }

// evalRef is the row evaluated in geom.Plane.Eval's summation order: terms
// ascending then the offset for d = 2 and 3, the offset first for the rest.
func evalRef(c, n []float64, v int32, off float64) float64 {
	d := len(n)
	x := c[int(v)*d : int(v)*d+d]
	switch d {
	case 2:
		return n[0]*x[0] + n[1]*x[1] - off
	case 3:
		return n[0]*x[0] + n[1]*x[1] + n[2]*x[2] - off
	}
	s := -off
	for i := range n {
		s += n[i] * x[i]
	}
	return s
}

// pointwise is the reference the scan must reproduce: one counted test per
// candidate, certified outside ±eps, the exact predicate (counted as a
// fallback) inside, and the exact predicate alone with no row.
func (k rowKernel) pointwise(v int32) bool {
	k.rec.VTests.Inc(uint64(v))
	if len(k.n) == 0 {
		return k.Exact(v)
	}
	s := k.eval(v)
	if s > k.eps {
		return true
	}
	if s < -k.eps {
		return false
	}
	k.rec.Fallbacks.Inc(uint64(v))
	return k.Exact(v)
}

// newRowKernel draws npts points of the given stride (0 = no row, over a
// stride-3 stream) in [-1, 1] and a random row; eps = 0.2 puts roughly a
// fifth of the points in the uncertain band, many times the sidecar's
// stack capacity on lists of a few hundred.
func newRowKernel(rng *rand.Rand, stride, npts int) rowKernel {
	d := stride
	if d == 0 {
		d = 3
	}
	k := rowKernel{c: make([]float64, d*npts), off: 0.1, eps: 0.2}
	for i := range k.c {
		k.c[i] = 2*rng.Float64() - 1
	}
	if stride > 0 {
		k.n = make([]float64, stride)
		for i := range k.n {
			k.n[i] = 2*rng.Float64() - 1
		}
	}
	k.rec = new(hullstats.Recorder)
	return k
}

// TestPlaneFilterMatchesPointwise checks the shared scan against the
// pointwise reference on synthetic rows of stride 2, 3 and 4 and with no
// row: survivors, their order, and the VTests/Fallbacks totals, on lists
// spanning several merge chunks with more uncertain candidates than the
// sidecar holds, drop present and absent, one empty side, a dst that
// already holds a prefix, and FilterRange over a suffix and a middle run.
func TestPlaneFilterMatchesPointwise(t *testing.T) {
	const npts = 900
	rng := rand.New(rand.NewSource(15))
	prefix := []int32{npts + 7, npts + 3} // larger than any candidate
	for _, stride := range []int{2, 3, 4, 0} {
		k := newRowKernel(rng, stride, npts)
		var c1, c2 []int32
		for v := int32(5); v < npts; v++ {
			if v%3 != 1 {
				c1 = append(c1, v)
			}
			if v%3 != 2 {
				c2 = append(c2, v)
			}
		}
		spilled, long := false, false
		check := func(label string, batch func(dst []int32) []int32, cands []int32) {
			t.Helper()
			t0, f0 := k.rec.VTests.Load(), k.rec.Fallbacks.Load()
			var want []int32
			for _, v := range cands {
				if k.pointwise(v) {
					want = append(want, v)
				}
			}
			t1, f1 := k.rec.VTests.Load(), k.rec.Fallbacks.Load()
			got := batch(append([]int32(nil), prefix...))
			t2, f2 := k.rec.VTests.Load(), k.rec.Fallbacks.Load()
			label = fmt.Sprintf("stride %d %s", stride, label)
			equalLists(t, label+" prefix", got[:len(prefix)], prefix)
			equalLists(t, label, got[len(prefix):], append([]int32{}, want...))
			if t2-t1 != t1-t0 || f2-f1 != f1-f0 {
				t.Fatalf("%s: scan counted %d tests / %d fallbacks, pointwise %d / %d",
					label, t2-t1, f2-f1, t1-t0, f1-f0)
			}
			spilled = spilled || f2-f1 > UncertainCap
			long = long || t2-t1 > 3*MergeChunk
		}
		for _, c := range []struct {
			name   string
			c1, c2 []int32
			drop   int32
		}{
			{"drop present", c1, c2, c1[len(c1)/2]},
			{"drop absent", c1, c2, -1},
			{"empty c2", c1, nil, c1[1]},
			{"empty c1", nil, c2, c2[len(c2)/2]},
			{"drop in the c2 tail", c1[:len(c1)/3], c2, c2[len(c2)-5]},
			{"short", c1[:3], c2[:2], -1},
			{"both empty", nil, nil, -1},
		} {
			check("FilterMerge "+c.name, func(dst []int32) []int32 {
				return k.filter().FilterMerge(c.c1, c.c2, c.drop, dst)
			}, MergeInto(nil, c.c1, c.c2, c.drop))
		}
		for _, r := range [][2]int32{{37, npts}, {100, 101 + 2*MergeChunk}, {50, 50}} {
			var cands []int32
			for v := r[0]; v < r[1]; v++ {
				cands = append(cands, v)
			}
			check(fmt.Sprintf("FilterRange [%d,%d)", r[0], r[1]), func(dst []int32) []int32 {
				return k.filter().FilterRange(r[0], r[1], dst)
			}, cands)
		}
		if stride > 0 && !spilled {
			t.Fatalf("stride %d: no batch had more than %d uncertain candidates", stride, UncertainCap)
		}
		if !long {
			t.Fatalf("stride %d: no batch spanned more than three merge chunks", stride)
		}
	}
}

// TestPlaneFilterAllocs requires both scan methods to run allocation-free
// into a dst with capacity, on every stride and with no row, while some
// candidates go through the uncertain sidecar: the stack sidecar and merge
// chunk must not escape to the heap.
func TestPlaneFilterAllocs(t *testing.T) {
	const npts = 600
	rng := rand.New(rand.NewSource(16))
	for _, stride := range []int{2, 3, 4, 0} {
		k := newRowKernel(rng, stride, npts)
		if stride > 0 {
			// Put exactly 10 candidates in the uncertain band: fewer than
			// the sidecar's stack capacity, so nothing spills.
			abs := make([]float64, npts)
			for v := range abs {
				abs[v] = math.Abs(k.eval(int32(v)))
			}
			sort.Float64s(abs)
			k.eps = (abs[9] + abs[10]) / 2
		}
		var c1, c2 []int32
		for v := int32(0); v < npts; v++ {
			if v%2 == 0 {
				c1 = append(c1, v)
			}
			if v%3 == 0 {
				c2 = append(c2, v)
			}
		}
		dst := make([]int32, 0, npts)
		if stride > 0 {
			f0 := k.rec.Fallbacks.Load()
			k.filter().FilterMerge(c1, c2, 4, dst)
			if n := k.rec.Fallbacks.Load() - f0; n == 0 || n > UncertainCap {
				t.Fatalf("stride %d: %d uncertain candidates, want 1..%d", stride, n, UncertainCap)
			}
		}
		merge := testing.AllocsPerRun(50, func() { dst = k.filter().FilterMerge(c1, c2, 4, dst[:0]) })
		rnge := testing.AllocsPerRun(50, func() { dst = k.filter().FilterRange(0, npts, dst[:0]) })
		if merge != 0 || rnge != 0 {
			t.Fatalf("stride %d: FilterMerge %.1f allocs/op, FilterRange %.1f allocs/op, want 0", stride, merge, rnge)
		}
	}
}

// TestPlantSoakBug pins the planted defect's reach: armed, every
// FilterMerge batch loses its last survivor and FilterRange is untouched.
func TestPlantSoakBug(t *testing.T) {
	k := newRowKernel(rand.New(rand.NewSource(17)), 3, 400)
	c1, c2 := sortedRandom(rand.New(rand.NewSource(18)), 150, 400), []int32{3, 9, 27, 81}
	merge := k.filter().FilterMerge(c1, c2, -1, nil)
	rng := k.filter().FilterRange(0, 400, nil)
	if len(merge) < 2 {
		t.Fatalf("only %d survivors: the check needs a batch to drop from", len(merge))
	}
	PlantSoakBug(true)
	defer PlantSoakBug(false)
	equalLists(t, "planted FilterMerge", k.filter().FilterMerge(c1, c2, -1, nil), merge[:len(merge)-1])
	if got := k.filter().FilterMerge(merge[:1], nil, -1, nil); len(got) != 0 {
		t.Fatalf("planted FilterMerge kept its only survivor: %v", got)
	}
	equalLists(t, "planted FilterRange", k.filter().FilterRange(0, 400, nil), rng)
}

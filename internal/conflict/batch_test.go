package conflict

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// modFilter is a concrete Filter used to exercise the generic entry points
// the way the kernels do: a struct passed by value. It keeps the multiples
// of mod. Its FilterMerge is an independent two-pointer loop (not MergeInto)
// that classifies each candidate as it is merged, like the kernels' fused
// filters; calls counts FilterMerge invocations so tests can tell the
// parallel piece path from the serial one.
type modFilter struct {
	mod   int32
	calls *atomic.Int64
}

func (f modFilter) keep(v int32) bool { return v%f.mod == 0 }

func (f modFilter) FilterMerge(c1, c2 []int32, drop int32, dst []int32) []int32 {
	if f.calls != nil {
		f.calls.Add(1)
	}
	i, j := 0, 0
	for i < len(c1) || j < len(c2) {
		var v int32
		switch {
		case j == len(c2) || (i < len(c1) && c1[i] < c2[j]):
			v = c1[i]
			i++
		case i == len(c1) || c2[j] < c1[i]:
			v = c2[j]
			j++
		default:
			v = c1[i]
			i++
			j++
		}
		if v != drop && f.keep(v) {
			dst = append(dst, v)
		}
	}
	return dst
}

func (f modFilter) FilterRange(from, to int32, dst []int32) []int32 {
	for v := from; v < to; v++ {
		if f.keep(v) {
			dst = append(dst, v)
		}
	}
	return dst
}

// pointwise is the reference of the Filter contract: the pointwise predicate
// over the materialized merge, nil for an empty result.
func pointwise(c1, c2 []int32, drop int32, keep func(int32) bool) []int32 {
	var out []int32
	for _, v := range MergeInto(nil, c1, c2, drop) {
		if keep(v) {
			out = append(out, v)
		}
	}
	return out
}

// arenaAlloc mimics a worker arena: every carve comes from one growing
// backing array, and the number of carves is counted.
type arenaAlloc struct {
	block []int32
	calls int
}

func (a *arenaAlloc) alloc(n int) []int32 {
	a.calls++
	if len(a.block) < n {
		a.block = make([]int32, max(n, 1<<12))
	}
	s := a.block[:n:n]
	a.block = a.block[n:]
	return s
}

func equalLists(t *testing.T, label string, got, want []int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: lengths %d vs %d", label, len(got), len(want))
	}
	if want == nil && got != nil {
		t.Fatalf("%s: want nil for an empty result", label)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d: %d vs %d", label, i, got[i], want[i])
		}
	}
}

// TestMergeIntoMatchesMergeFilter pins the reference merge: MergeInto is
// exactly the keep-everything merge-filter, on the serial and the piece path.
func TestMergeIntoMatchesMergeFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	all := modFilter{mod: 1}
	var sc Scratch
	for trial := 0; trial < 50; trial++ {
		c1 := sortedRandom(rng, rng.Intn(500), 2000)
		c2 := sortedRandom(rng, rng.Intn(500), 2000)
		drop := int32(rng.Intn(2000))
		got := MergeInto(nil, c1, c2, drop)
		for _, grain := range []int{1 << 30, 16} {
			want := MergeFilterFused(&sc, c1, c2, drop, all, grain, heapAlloc)
			if len(got) == 0 {
				got = nil
			}
			equalLists(t, "MergeInto", got, want)
		}
	}
}

// TestBatchMatchesClosure is the conflict-level property of the fused path:
// MergeFilterFused returns the pointwise predicate over MergeInto — same
// elements, same order, nil for empty — on the serial path, on parallel
// pieces at small grains (including degenerate tiny lists, where more pieces
// are requested than there are distinct split values), and with a plain or
// an arena allocator.
func TestBatchMatchesClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var calls atomic.Int64
	var arena arenaAlloc
	var sc Scratch
	pieced := false
	for trial := 0; trial < 60; trial++ {
		n1, n2 := rng.Intn(20000), rng.Intn(20000)
		if trial < 10 {
			n1, n2 = rng.Intn(8), rng.Intn(8)
		}
		c1 := sortedRandom(rng, n1, 100000)
		c2 := sortedRandom(rng, n2, 100000)
		var drop int32 = -1
		if len(c1) > 0 && trial%2 == 0 {
			drop = c1[rng.Intn(len(c1))]
		}
		flt := modFilter{mod: int32(2 + rng.Intn(5)), calls: &calls}
		want := pointwise(c1, c2, drop, flt.keep)
		for _, grain := range []int{1, 64, 1 << 30} {
			for _, alloc := range []func(int) []int32{heapAlloc, arena.alloc} {
				calls.Store(0)
				got := MergeFilterFused(&sc, c1, c2, drop, flt, grain, alloc)
				equalLists(t, "MergeFilterFused", got, want)
				if calls.Load() > 1 {
					pieced = true
				}
			}
		}
	}
	if !pieced {
		t.Fatal("no call split into parallel pieces")
	}
	if arena.calls == 0 {
		t.Fatal("the arena allocator was never exercised")
	}
}

// TestMergeFilterScratchMatchesClosure pins the arena path: the serial path
// through one Scratch equals the pointwise reference under both allocators,
// and the scratch buffer survives reuse across lists of changing length.
func TestMergeFilterScratchMatchesClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var sc Scratch
	var arena arenaAlloc
	for trial := 0; trial < 60; trial++ {
		c1 := sortedRandom(rng, rng.Intn(2000), 10000)
		c2 := sortedRandom(rng, rng.Intn(2000), 10000)
		var drop int32 = -1
		if len(c1) > 0 {
			drop = c1[rng.Intn(len(c1))]
		}
		flt := modFilter{mod: int32(2 + rng.Intn(5))}
		want := pointwise(c1, c2, drop, flt.keep)
		for _, a := range []func(int) []int32{heapAlloc, arena.alloc} {
			equalLists(t, "MergeFilterFused serial", MergeFilterFused(&sc, c1, c2, drop, flt, 1<<30, a), want)
		}
	}
	if arena.calls == 0 {
		t.Fatal("the arena allocator was never exercised")
	}
}

// TestBuildFilterMatchesBuild pins the initial-list path: BuildFilterInto
// equals the pointwise predicate over the range on every grain (serial,
// parallel chunks, a ragged last chunk) and with either allocator.
func TestBuildFilterMatchesBuild(t *testing.T) {
	var arena arenaAlloc
	flt := modFilter{mod: 7}
	var want []int32
	for v := int32(3); v < 1000; v++ {
		if flt.keep(v) {
			want = append(want, v)
		}
	}
	for _, grain := range []int{0, 16, 100, 1 << 30} {
		for _, a := range []func(int) []int32{heapAlloc, arena.alloc} {
			equalLists(t, "BuildFilterInto", BuildFilterInto(3, 1000, flt, grain, a), want)
		}
	}
	if arena.calls == 0 {
		t.Fatal("the arena allocator was never exercised")
	}
}

// TestSplitSpansDegenerate pins the satellite fix: when the requested piece
// count exceeds the longer list's length, the sampled bounds collapse onto
// repeated values; splitSpans must dedupe them (strictly increasing bounds,
// spans partitioning both lists) and return nil — serial fallback — when
// fewer than 2 distinct split values survive.
func TestSplitSpansDegenerate(t *testing.T) {
	// A single-element longer list collapses every sampled bound onto one
	// value: 1 distinct bound after dedupe, so serial fallback.
	if s := splitSpans([]int32{5}, nil, 4); s != nil {
		t.Fatalf("want nil for single-element list, got %d spans", len(s))
	}
	if s := splitSpans([]int32{7}, []int32{9}, 16); s != nil {
		t.Fatalf("want nil for collapsed bounds, got %d spans", len(s))
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c1 := sortedRandom(rng, rng.Intn(12), 40)
		c2 := sortedRandom(rng, rng.Intn(12), 40)
		if len(c1) == 0 && len(c2) == 0 {
			return true
		}
		pieces := 2 + rng.Intn(20) // often far beyond the list lengths
		spans := splitSpans(c1, c2, pieces)
		if spans == nil {
			return true
		}
		if len(spans) < 2 {
			return false
		}
		// Spans must partition both lists in order with no empty-on-both
		// interior degeneracy caused by duplicate bounds.
		p1, p2 := 0, 0
		for _, s := range spans {
			if s.a1 != p1 || s.a2 != p2 || s.b1 < s.a1 || s.b2 < s.a2 {
				return false
			}
			p1, p2 = s.b1, s.b2
		}
		return p1 == len(c1) && p2 == len(c2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

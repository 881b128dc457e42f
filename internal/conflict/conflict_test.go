package conflict

import (
	"math/rand"
	"os"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
)

// TestMain raises GOMAXPROCS so the parallel filter path is exercised even
// on single-core machines (goroutines still interleave).
func TestMain(m *testing.M) {
	if runtime.GOMAXPROCS(0) < 4 {
		runtime.GOMAXPROCS(4)
	}
	os.Exit(m.Run())
}

func sortedRandom(rng *rand.Rand, n, max int) []int32 {
	seen := map[int32]bool{}
	for len(seen) < n {
		seen[int32(rng.Intn(max))] = true
	}
	out := make([]int32, 0, n)
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// heapAlloc is the plain allocator of the tests that need no arena.
func heapAlloc(n int) []int32 { return make([]int32, n) }

// TestMergeFilterMatchesSerial pins the piece path on long lists: splitting
// at the default and at a small grain returns exactly the serial result.
func TestMergeFilterMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var sc Scratch
	for trial := 0; trial < 50; trial++ {
		n1, n2 := rng.Intn(30000), rng.Intn(30000)
		c1 := sortedRandom(rng, n1, 100000)
		c2 := sortedRandom(rng, n2, 100000)
		var drop int32 = -1
		if len(c1) > 0 {
			drop = c1[rng.Intn(len(c1))]
		}
		flt := modFilter{mod: 3}
		serial := MergeFilterFused(&sc, c1, c2, drop, flt, 1<<30, heapAlloc)
		for _, grain := range []int{0, 64} {
			equalLists(t, "MergeFilterFused", MergeFilterFused(&sc, c1, c2, drop, flt, grain, heapAlloc), serial)
		}
	}
}

// TestScratchMatchesMergeFilter pins the work-stealing engines' contract:
// the serial path through one reused caller-owned Scratch produces exactly
// the output through a fresh Scratch — same elements, same order, nil for
// empty — with either allocator, and the scratch buffer is reusable across
// calls without cross-contamination.
func TestScratchMatchesMergeFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var sc Scratch
	var allocCalls int
	alloc := func(n int) []int32 {
		allocCalls++
		return make([]int32, n)
	}
	for trial := 0; trial < 60; trial++ {
		n1, n2 := rng.Intn(2000), rng.Intn(2000)
		c1 := sortedRandom(rng, n1, 10000)
		c2 := sortedRandom(rng, n2, 10000)
		var drop int32 = -1
		if len(c1) > 0 {
			drop = c1[rng.Intn(len(c1))]
		}
		flt := modFilter{mod: 3}
		want := MergeFilterFused(new(Scratch), c1, c2, drop, flt, 1<<30, heapAlloc)
		for _, a := range []func(int) []int32{heapAlloc, alloc} {
			equalLists(t, "MergeFilterFused on a reused Scratch", MergeFilterFused(&sc, c1, c2, drop, flt, 1<<30, a), want)
		}
	}
	if allocCalls == 0 {
		t.Fatal("custom allocator was never exercised")
	}
}

func TestMergeFilterProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c1 := sortedRandom(rng, rng.Intn(200), 1000)
		c2 := sortedRandom(rng, rng.Intn(200), 1000)
		drop := int32(rng.Intn(1000))
		out := MergeFilterFused(new(Scratch), c1, c2, drop, modFilter{mod: 2}, 32, heapAlloc)
		// Ascending, no drop, all even, subset of union.
		union := map[int32]bool{}
		for _, v := range c1 {
			union[v] = true
		}
		for _, v := range c2 {
			union[v] = true
		}
		for i, v := range out {
			if i > 0 && out[i-1] >= v {
				return false
			}
			if v == drop || v%2 != 0 || !union[v] {
				return false
			}
		}
		// Completeness: every even union element other than drop appears.
		n := 0
		for v := range union {
			if v != drop && v%2 == 0 {
				n++
			}
		}
		return n == len(out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeFilterEdgeCases(t *testing.T) {
	all := modFilter{mod: 1}
	var sc Scratch
	one := []int32{5}
	for _, tc := range []struct {
		name   string
		c1, c2 []int32
		drop   int32
		want   int
	}{
		{"empty inputs", nil, nil, 0, 0},
		{"drop only element", one, nil, 5, 0},
		{"drop only element of c2", nil, one, 5, 0},
		{"dedup", one, one, 0, 1},
	} {
		for _, grain := range []int{0, 1} {
			if out := MergeFilterFused(&sc, tc.c1, tc.c2, tc.drop, all, grain, heapAlloc); len(out) != tc.want || (tc.want == 0 && out != nil) {
				t.Fatalf("%s (grain %d): got %v", tc.name, grain, out)
			}
		}
		if out := MergeFilterFused(&sc, tc.c1, tc.c2, tc.drop, all, 1<<30, heapAlloc); len(out) != tc.want || (tc.want == 0 && out != nil) {
			t.Fatalf("%s (scratch): got %v", tc.name, out)
		}
	}
}

func TestBuild(t *testing.T) {
	flt := modFilter{mod: 7}
	if out := BuildFilterInto(10, 10, flt, 0, heapAlloc); out != nil {
		t.Fatal("empty range")
	}
	if out := BuildFilterInto(10, 5, flt, 0, heapAlloc); out != nil {
		t.Fatal("reversed range")
	}
	if out := BuildFilterInto(1, 7, flt, 0, heapAlloc); out != nil {
		t.Fatal("no survivors must return nil")
	}
	for _, grain := range []int{0, 16, 1 << 30} {
		out := BuildFilterInto(3, 1000, flt, grain, heapAlloc)
		if len(out) != cap(out) {
			t.Fatalf("grain %d: result not exact-size (%d of %d)", grain, len(out), cap(out))
		}
		for i, v := range out {
			if !flt.keep(v) || (i > 0 && out[i-1] >= v) {
				t.Fatalf("grain %d: element %d = %d", grain, i, v)
			}
		}
	}
}

func BenchmarkMergeFilter(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	c1 := sortedRandom(rng, 100000, 1<<22)
	c2 := sortedRandom(rng, 100000, 1<<22)
	flt := modFilter{mod: 2}
	var sc Scratch
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MergeFilterFused(&sc, c1, c2, -1, flt, 1<<30, heapAlloc)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MergeFilterFused(&sc, c1, c2, -1, flt, 1<<12, heapAlloc)
		}
	})
}

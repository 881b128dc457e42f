package engine_test

import (
	"runtime"
	"testing"

	"parhull/internal/engine"
)

// TestArenaAppendFacetsIsTheRecord pins the walk the kernels read their
// created facets from: every facet handed out since the last Reset, in the
// order handed out, across slab boundaries and up to the current slab's
// cursor, and nothing from an earlier cycle. Bytes counts what the arena
// retains, used or not.
func TestArenaAppendFacetsIsTheRecord(t *testing.T) {
	a := engine.NewArena[int]()
	cycle := func(n int) {
		t.Helper()
		a.Reset()
		var want []*int
		for i := 0; i < n; i++ {
			f := a.Facet()
			*f = i + 1
			want = append(want, f)
		}
		got := a.AppendFacets(nil)
		if len(got) != n {
			t.Fatalf("cycle of %d: walk listed %d facets", n, len(got))
		}
		for i, f := range got {
			if f != want[i] || *f != i+1 {
				t.Fatalf("cycle of %d: facet %d out of order", n, i)
			}
		}
	}
	cycle(600) // three slabs, the last one partly used
	a.Ints(5)
	b := a.Bytes()
	if want := int64(3*256*8 + 4*(1<<14)); b != want {
		t.Fatalf("Bytes = %d, want %d (three slabs of 256 ints, one int32 block)", b, want)
	}
	cycle(10) // rewound: the earlier cycle's facets are gone, its slabs kept
	cycle(0)
	if a.Bytes() != b {
		t.Fatalf("Bytes changed across rewound cycles: %d, then %d", b, a.Bytes())
	}
}

// TestArenaSlotIsPerArena checks the plane-slot discipline's premise: an
// arena has one slot, which every call returns, and distinct worker arenas
// never share one.
func TestArenaSlotIsPerArena(t *testing.T) {
	as := engine.NewArenas[int](2)
	if as[0].Slot() != as[0].Slot() {
		t.Fatal("an arena returned two different plane slots")
	}
	if as[0].Slot() == as[1].Slot() {
		t.Fatal("two worker arenas share a plane slot")
	}
}

func TestArenaCarvesAreIsolated(t *testing.T) {
	as := engine.NewArenas[int](1)
	a := &as[0]
	x := a.Ints(2)
	y := a.Ints(2)
	x = append(x, 1, 2)
	y = append(y, 3, 4)
	// Capacity clamping must prevent an overflowing append from touching the
	// neighboring carve.
	x = append(x, 9)
	if y[0] != 3 || y[1] != 4 {
		t.Fatalf("append beyond capacity corrupted neighbor carve: %v", y)
	}
	if x[2] != 9 {
		t.Fatalf("overflow append lost: %v", x)
	}
	if a.Alloc == nil {
		t.Fatal("NewArenas did not bind Alloc")
	}
	if l := a.Alloc(4); len(l) != 4 {
		t.Fatalf("Alloc(4): len=%d", len(l))
	}
	// Distinct facets from the same slab.
	f1, f2 := a.Facet(), a.Facet()
	if f1 == f2 {
		t.Fatal("slab returned the same facet twice")
	}
}

// TestArenaReusesBlocksAcrossCarveOrders pins the block-reuse rule: an
// oversized carve (a conflict list longer than a block) takes the first
// retained block that fits without consuming the smaller blocks it passes,
// so a cycle that makes the same carves as the last one, with the oversized
// carve first instead of last, allocates nothing. (Consuming them made a
// reused Builder retain a new set of blocks on most warm builds of a
// boundary-heavy input.)
func TestArenaReusesBlocksAcrossCarveOrders(t *testing.T) {
	a := engine.NewArena[int]()
	cycle := func(bigFirst bool) {
		a.Reset()
		if bigFirst {
			a.Ints(1 << 15)
		}
		for i := 0; i < 40; i++ {
			a.Ints(1000)
		}
		if !bigFirst {
			a.Ints(1 << 15)
		}
	}
	cycle(false)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cycle(true)
	runtime.ReadMemStats(&m1)
	if n := m1.Mallocs - m0.Mallocs; n != 0 {
		t.Fatalf("the reordered cycle made %d allocations, want 0", n)
	}
}

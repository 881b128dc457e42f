package engine_test

import (
	"runtime"
	"testing"

	"parhull/internal/engine"
)

func TestArenaNilFallsBackToHeap(t *testing.T) {
	var a *engine.Arena[int]
	if f := a.Facet(); f == nil || *f != 0 {
		t.Fatal("nil arena Facet not zeroed heap value")
	}
	s := a.Ints(5)
	if len(s) != 0 || cap(s) != 5 {
		t.Fatalf("nil arena Ints: len=%d cap=%d", len(s), cap(s))
	}
	if l := a.IntsLen(3); len(l) != 3 {
		t.Fatalf("nil arena IntsLen: len=%d", len(l))
	}
	if s1, s2 := a.Slot(), a.Slot(); s1 == nil || s1 == s2 {
		t.Fatal("nil arena Slot must return a fresh slot per call")
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

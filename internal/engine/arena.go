package engine

import (
	"unsafe"

	"parhull/internal/conflict"
	"parhull/internal/geom"
)

// Arena sizing: facets are slab-allocated in batches and every small int32
// slice a construction publishes (vertex tuples, ridges, conflict lists) is
// carved from per-worker blocks, so the steady-state cost of creating a
// facet is a few pointer bumps instead of 4-6 heap allocations.
const (
	arenaFacetSlab = 256
	arenaIntBlock  = 1 << 14 // 16384 int32 = 64 KiB per block
)

// Arena is one owner's private allocator, generic over the kernel's facet
// value type: a worker of a Pool (indexed by the executor's worker id), or
// the scaffold (Reuse), whose own arena holds the base facets and every
// facet of a sequential construction. Every facet a kernel creates comes
// from an arena, so the arenas of a construction are its facet record,
// which Reuse.Walk reads back in the order the facets were handed out. It
// is a monotone bump allocator: within one construction, memory handed out
// is never recycled, so every published slice stays valid (and immutable)
// for the lifetime of the Result. Slabs and blocks are retained across
// constructions: Reset rewinds the cursors and re-zeroes the used facet
// prefixes (facets carry liveness state that must start clean), while int32
// blocks need no zeroing because every carve is fully overwritten before it
// is read. Only the owner ever touches an arena, so no synchronization is
// needed.
//
// An arena also holds its worker's plane slot (Slot): the hyperplane of the
// facet the worker made last, kept only while that facet's own conflict list
// is filtered.
type Arena[FV any] struct {
	facets    []FV   // remaining slots of the current facet slab
	slabs     [][]FV // every facet slab, in allocation order
	usedSlabs int    // slabs consumed this cycle (current = slabs[usedSlabs-1])

	block      []int32   // remaining space of the current int32 block
	blocks     [][]int32 // every block, in allocation order
	usedBlocks int       // blocks consumed this cycle

	// Scratch is the worker's reusable merge-filter buffer (see
	// conflict.Scratch): steady-state conflict filtering touches no
	// sync.Pool and stays hot in the worker's cache.
	Scratch conflict.Scratch
	// Alloc is the bound IntsLen method, created once by NewArenas so the
	// hot path does not allocate a fresh method-value closure per facet.
	Alloc func(int) []int32

	slot PlaneSlot
}

// PlaneSlot is the transient half of a plane kernel's facet: its folded
// hyperplane, its exact outward sign, its vertex ids and, where the kernel
// keeps no plane, its vertex coordinates. Algorithm 3 reads a facet's plane
// exactly once, at line 16, when it filters C(t1) ∪ C(t2) down to the
// facet's own conflict list (line 9 of Algorithm 2 likewise), so a kernel
// writes the slot of its arena when it makes a facet, that facet's filter
// reads it, and the same worker's next facet overwrites it. Filter pieces
// that run on other goroutines (conflict.MergeFilterFused above the grain)
// only read the slot, while its owner waits for them. A kernel sets every
// field its branch reads on each facet; nothing zeroes the slot between
// facets.
type PlaneSlot struct {
	geom.Plane
	// Sign is the exact orientation sign that classifies a point as strictly
	// outside the facet.
	Sign int
	// Verts are the facet's vertex ids (the exact predicate's input).
	Verts []int32
	// VP holds vertex coordinates for kernels that need them on the exact
	// path; grow-only, so refilling it allocates nothing in steady state.
	VP []geom.Point
}

// Slot returns the arena's plane slot.
func (a *Arena[FV]) Slot() *PlaneSlot { return &a.slot }

// NewArenas returns one arena per worker, Alloc closures pre-bound.
func NewArenas[FV any](n int) []Arena[FV] {
	as := make([]Arena[FV], n)
	for i := range as {
		as[i].init()
	}
	return as
}

func (a *Arena[FV]) init() { a.Alloc = a.IntsLen }

// NewArena returns one arena with its Alloc closure bound, for an owner of a
// single arena outside a pool and a scaffold (a Reuse binds its own arena
// in Begin), such as a test of one kernel's facet construction.
func NewArena[FV any]() *Arena[FV] {
	a := new(Arena[FV])
	a.init()
	return a
}

// Facet returns a zeroed facet from the slab. Whole slabs stay reachable as
// long as the arena does; Reset re-zeroes the used slots, which is why
// pooled results are only valid until the next cycle.
func (a *Arena[FV]) Facet() *FV {
	if len(a.facets) == 0 {
		a.grabSlab()
	}
	f := &a.facets[0]
	a.facets = a.facets[1:]
	return f
}

// used returns the used prefix of facet slab i < usedSlabs: the whole slab,
// except for the current one, which is used up to its cursor.
func (a *Arena[FV]) used(i int) []FV {
	s := a.slabs[i]
	if i == a.usedSlabs-1 {
		s = s[:len(s)-len(a.facets)]
	}
	return s
}

// AppendFacets appends every facet handed out since the last Reset to dst,
// in the order handed out, and returns the extended slice. It reads no facet.
func (a *Arena[FV]) AppendFacets(dst []*FV) []*FV {
	for i := 0; i < a.usedSlabs; i++ {
		s := a.used(i)
		for j := range s {
			dst = append(dst, &s[j])
		}
	}
	return dst
}

// Len returns the number of facets handed out since the last Reset: every
// used slab is full except the current one.
func (a *Arena[FV]) Len() int { return a.usedSlabs*arenaFacetSlab - len(a.facets) }

// Bytes returns the exact size of the facet slabs and int32 blocks the arena
// retains, used or not: what it keeps for the next construction.
func (a *Arena[FV]) Bytes() int64 { return a.bytes(len(a.slabs), a.blocks) }

// usedBytes is Bytes over the slabs and blocks the construction since the
// last Reset took from, each counted whole.
func (a *Arena[FV]) usedBytes() int64 { return a.bytes(a.usedSlabs, a.blocks[:a.usedBlocks]) }

// bytes returns the size of the first slabs facet slabs and of blocks.
func (a *Arena[FV]) bytes(slabs int, blocks [][]int32) int64 {
	var zero FV
	n := int64(slabs) * arenaFacetSlab * int64(unsafe.Sizeof(zero))
	for _, b := range blocks {
		n += 4 * int64(len(b))
	}
	return n
}

// grabSlab advances to the next retained facet slab, allocating one the
// first cycle through.
func (a *Arena[FV]) grabSlab() {
	if a.usedSlabs < len(a.slabs) {
		a.facets = a.slabs[a.usedSlabs]
	} else {
		s := make([]FV, arenaFacetSlab)
		a.slabs = append(a.slabs, s)
		a.facets = s
	}
	a.usedSlabs++
}

// Ints carves a zero-length, capacity-n slice from the worker's block. The
// capacity is clamped to n, so an append beyond n can never write into a
// neighboring carve.
func (a *Arena[FV]) Ints(n int) []int32 {
	if n > len(a.block) {
		a.grabBlock(n)
	}
	s := a.block[:0:n]
	a.block = a.block[n:]
	return s
}

// IntsLen is Ints with the slice pre-extended to length n, for callers that
// fill every slot (copy-style compaction, direct-index ridge fills). The
// slots are NOT zeroed — a retained block holds stale values from earlier
// cycles — so partial fills would leak old data into published slices.
func (a *Arena[FV]) IntsLen(n int) []int32 {
	return a.Ints(n)[:n]
}

// grabBlock makes the first retained block that fits an n-int32 carve the
// current one, allocating a fresh block (of at least the standard size) when
// none does. A fitting block further down the list is swapped forward, so
// the smaller blocks it passes stay free for the rest of the cycle: only
// oversized carves (long conflict lists) can skip a block, and a cycle whose
// oversized carves fall in a different order from the last cycle's reuses
// the same blocks instead of wasting them and retaining a new set.
func (a *Arena[FV]) grabBlock(n int) {
	j := a.usedBlocks
	for j < len(a.blocks) && len(a.blocks[j]) < n {
		j++
	}
	if j == len(a.blocks) {
		a.blocks = append(a.blocks, make([]int32, max(arenaIntBlock, n)))
	}
	u := a.usedBlocks
	a.blocks[u], a.blocks[j] = a.blocks[j], a.blocks[u]
	a.block = a.blocks[u]
	a.usedBlocks++
}

// Reset rewinds the arena for the next construction: cursors return to the
// first slab/block and the facet slots used this cycle are re-zeroed (a
// facet must start with clean liveness and slice fields). Int32
// blocks are rewound without zeroing — every carve is fully overwritten
// before it is read. The caller must guarantee no construction is touching
// the arena and that no previous Result is still in use.
func (a *Arena[FV]) Reset() {
	for i := 0; i < a.usedSlabs; i++ {
		clear(a.used(i))
	}
	a.usedSlabs = 0
	a.facets = nil
	a.usedBlocks = 0
	a.block = nil
}

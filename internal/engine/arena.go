package engine

import (
	"sync"

	"parhull/internal/conflict"
)

// Arena sizing: facets are slab-allocated in batches and every small int32
// slice a construction publishes (vertex tuples, ridges, conflict lists) is
// carved from per-worker blocks, so the steady-state cost of creating a
// facet is a few pointer bumps instead of 4-6 heap allocations.
const (
	arenaFacetSlab = 256
	arenaIntBlock  = 1 << 14 // 16384 int32 = 64 KiB per block
)

// Arena is one worker's private allocator on the work-stealing path, generic
// over the kernel's facet value type. It is a monotone bump allocator:
// within one construction, memory handed out is never recycled, so every
// published slice stays valid (and immutable) for the lifetime of the Result
// — the same lifetime heap-allocated facets had. Slabs and blocks are
// retained across constructions: Reset rewinds the cursors and re-zeroes the
// used facet prefixes (facets carry liveness state that must start clean),
// while int32 blocks need no zeroing because every carve is fully
// overwritten before it is read. Only the owning worker ever touches an
// arena (indexed by the executor's worker id), so no synchronization is
// needed; a nil *Arena falls back to plain heap allocation, which is what
// the base facets of a one-shot construction use.
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
}

// NewArenas returns one arena per worker, Alloc closures pre-bound.
func NewArenas[FV any](n int) []Arena[FV] {
	as := make([]Arena[FV], n)
	for i := range as {
		as[i].init()
	}
	return as
}

func (a *Arena[FV]) init() { a.Alloc = a.IntsLen }

// NewArena returns one arena with its Alloc closure bound, for owners that
// keep a single arena outside a worker pool (the retained initial hull and
// sequential constructions).
func NewArena[FV any]() *Arena[FV] {
	a := new(Arena[FV])
	a.init()
	return a
}

// Facet returns a zeroed facet from the slab (or the heap when a == nil).
// Whole slabs stay reachable as long as the arena does; Reset re-zeroes the
// used slots, which is why pooled results are only valid until the next
// cycle.
func (a *Arena[FV]) Facet() *FV {
	if a == nil {
		return new(FV)
	}
	if len(a.facets) == 0 {
		a.grabSlab()
	}
	f := &a.facets[0]
	a.facets = a.facets[1:]
	return f
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
	if a == nil {
		return make([]int32, 0, n)
	}
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

// grabBlock advances to the next retained block that fits an n-int32 carve,
// allocating a fresh block (of at least the standard size) when none does.
// Retained blocks too small for the request are skipped — wasted for this
// cycle only, and rare: almost every block is the standard size, and only
// oversized conflict-list carves exceed it.
func (a *Arena[FV]) grabBlock(n int) {
	for a.usedBlocks < len(a.blocks) {
		b := a.blocks[a.usedBlocks]
		a.usedBlocks++
		if len(b) >= n {
			a.block = b
			return
		}
	}
	want := arenaIntBlock
	if n > want {
		want = n
	}
	b := make([]int32, want)
	a.blocks = append(a.blocks, b)
	a.usedBlocks = len(a.blocks)
	a.block = b
}

// Reset rewinds the arena for the next construction: cursors return to the
// first slab/block and the facet slots used this cycle are re-zeroed (a
// facet must start with clean liveness, plane, and slice fields). Int32
// blocks are rewound without zeroing — every carve is fully overwritten
// before it is read. The caller must guarantee no construction is touching
// the arena and that no previous Result is still in use.
func (a *Arena[FV]) Reset() {
	if a == nil {
		return
	}
	for i := 0; i < a.usedSlabs; i++ {
		s := a.slabs[i]
		if i == a.usedSlabs-1 {
			s = s[:len(s)-len(a.facets)] // only the consumed prefix
		}
		clear(s)
	}
	a.usedSlabs = 0
	a.facets = nil
	a.usedBlocks = 0
	a.block = nil
}

// ArenaPool hands arenas to transient holders — the rounds schedule's
// barriered steps — so that schedule gets slab-allocated facets (in
// creation, i.e. round, order) instead of per-facet heap allocation. Arenas are monotone, so recycling
// one to a new holder is safe: previously carved memory is never reused
// within a cycle. The pool retains every arena it ever created, which is
// what lets a pooled engine Reset them between cycles.
type ArenaPool[FV any] struct {
	mu   sync.Mutex
	free []*Arena[FV]
	all  []*Arena[FV]
}

// Get returns an idle arena, creating one if none is free. The live arena
// count is bounded by the holder concurrency (the rounds ParallelFor width).
func (p *ArenaPool[FV]) Get() *Arena[FV] {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		a := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return a
	}
	a := NewArena[FV]()
	p.all = append(p.all, a)
	return a
}

// Put returns an arena to the pool.
func (p *ArenaPool[FV]) Put(a *Arena[FV]) {
	p.mu.Lock()
	p.free = append(p.free, a)
	p.mu.Unlock()
}

// Reset rewinds every arena the pool ever handed out. Call only between
// cycles, with every arena returned.
func (p *ArenaPool[FV]) Reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, a := range p.all {
		a.Reset()
	}
}

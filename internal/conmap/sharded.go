package conmap

import (
	"sync"
	"unsafe"

	"parhull/internal/sched"
)

// shardCount must be a power of two. 64 shards keep contention negligible at
// typical core counts while costing little memory.
const shardCount = 64

// shardShift selects a shard from the top bits of the key word, leaving the
// low bits — the slot index within a shard — independent of the shard.
const shardShift = 64 - 6 // log2(shardCount) == 6

// ShardedMap is the production ridge multimap: a growable hash table split
// into mutex-guarded shards. It does not need a capacity estimate, unlike
// the fixed-size Algorithm 4/5 tables, and is the default used by the hull
// engines. Semantics match CASMap: the first facet to arrive stores its
// entry and InsertAndSet returns true; the second finds the entry and
// returns false.
//
// Each shard is a flat linear-probing array of (key word, value) slots, a
// lock-guarded instance of the Algorithm 4 table that doubles before it is
// half full, so it never fills. Keys of one or two indices are exact (see
// Key), so their slot holds nothing but the word and the value. A longer
// key's ids, which settle matches on equal words, are copied into a packed
// per-shard list, and a parallel reference column points each slot at them;
// a shard allocates both only once such a key arrives. Key word 0 marks an
// empty slot; MakeKey gives it to no ridge of point indices.
type ShardedMap[V comparable] struct {
	shards [shardCount]shard[V]
}

type shard[V comparable] struct {
	mu    sync.Mutex
	slots []slot[V]
	// Keys of 3+ indices, nil until one lands: long holds each as its
	// length followed by its ids, and ref[i] is one past the offset of slot
	// i's length in long, or 0 for a slot holding an exact key.
	ref   []int32
	long  []int32
	count int
}

type slot[V comparable] struct {
	key uint64
	val V
}

// NewShardedMap returns an empty ShardedMap pre-sized for expected distinct
// ridges. The hint may be zero; shards grow as needed.
func NewShardedMap[V comparable](expected int) *ShardedMap[V] {
	s := &ShardedMap[V]{}
	c := roundCapacity(expected / shardCount)
	for i := range s.shards {
		s.shards[i].slots = make([]slot[V], c)
	}
	return s
}

// find returns the slot index holding k, or the empty slot ending its probe
// run. The caller holds the lock.
func (sh *shard[V]) find(k Key) (int, bool) {
	mask := uint64(len(sh.slots) - 1)
	exact := k.exact()
	for i := k.hash & mask; ; i = (i + 1) & mask {
		w := sh.slots[i].key
		if w == 0 {
			return int(i), false
		}
		if w != k.hash {
			continue
		}
		var r int32 // stays 0 for a slot holding an exact key
		if sh.ref != nil {
			r = sh.ref[i]
		}
		if exact && r == 0 || !exact && r != 0 && equalIDs(sh.long[r:r+sh.long[r-1]], k.id) {
			return int(i), true
		}
	}
}

// grow doubles the slot array and reinserts every entry. The caller holds
// the lock.
func (sh *shard[V]) grow() {
	old, oldRef := sh.slots, sh.ref
	sh.slots = make([]slot[V], 2*len(old))
	if oldRef != nil {
		sh.ref = make([]int32, len(sh.slots))
	}
	mask := uint64(len(sh.slots) - 1)
	for j, s := range old {
		if s.key == 0 {
			continue
		}
		i := s.key & mask
		for sh.slots[i].key != 0 {
			i = (i + 1) & mask
		}
		sh.slots[i] = s
		if oldRef != nil {
			sh.ref[i] = oldRef[j]
		}
	}
}

// InsertAndSet registers v on ridge k, reporting whether v arrived first.
// The sharded map grows on demand, so its error is always nil — it is the
// terminal rung of the capacity degradation ladder.
func (m *ShardedMap[V]) InsertAndSet(k Key, v V) (bool, error) {
	sh := &m.shards[k.hash>>shardShift]
	sh.mu.Lock()
	i, found := sh.find(k)
	if found {
		sh.mu.Unlock()
		return false, nil
	}
	if 2*(sh.count+1) > len(sh.slots) {
		sh.grow()
		i, _ = sh.find(k)
	}
	sh.slots[i] = slot[V]{key: k.hash, val: v}
	if !k.exact() {
		if sh.ref == nil {
			sh.ref = make([]int32, len(sh.slots))
		}
		sh.long = append(sh.long, int32(len(k.id)))
		sh.ref[i] = int32(len(sh.long))
		sh.long = append(sh.long, k.id...)
	}
	sh.count++
	sh.mu.Unlock()
	return true, nil
}

// GetValue returns the facet registered on k (the one that arrived first).
func (m *ShardedMap[V]) GetValue(k Key, not V) V {
	sh := &m.shards[k.hash>>shardShift]
	sh.mu.Lock()
	i, found := sh.find(k)
	v := sh.slots[i].val
	sh.mu.Unlock()
	if !found {
		panic("conmap: ShardedMap.GetValue on a ridge that was never inserted")
	}
	return v
}

// Reset empties the map for the next construction, shards cleared in
// parallel. Every shard keeps its grown slot array, so a reset map re-fills
// to its previous size without rehashing or allocation — the pooled-Builder
// steady state. A shard keeps its long-key storage only if the construction
// that just ended stored a long key in it, so a map that once held longer
// ridges does not make every later build of short ones clear, copy and
// probe an idle reference column. Must not race with any other operation.
func (m *ShardedMap[V]) Reset() {
	sched.ParallelFor(shardCount, 8, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sh := &m.shards[i]
			clear(sh.slots)
			if len(sh.long) == 0 {
				sh.ref, sh.long = nil, nil
			} else {
				clear(sh.ref)
				sh.long = sh.long[:0]
			}
			sh.count = 0
		}
	})
}

// Bytes returns the exact size of the slot arrays and long-key columns the
// shards retain. Must not race with any other operation.
func (m *ShardedMap[V]) Bytes() int64 {
	var n int64
	for i := range m.shards {
		sh := &m.shards[i]
		n += int64(len(sh.slots))*int64(unsafe.Sizeof(sh.slots[0])) + 4*int64(cap(sh.ref)+cap(sh.long))
	}
	return n
}

// Len reports the number of stored ridges.
func (m *ShardedMap[V]) Len() int {
	n := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		n += sh.count
		sh.mu.Unlock()
	}
	return n
}

// Compile-time interface checks for all three implementations.
var (
	_ RidgeMap[*int] = (*CASMap[*int])(nil)
	_ RidgeMap[*int] = (*TASMap[*int])(nil)
	_ RidgeMap[*int] = (*ShardedMap[*int])(nil)
)

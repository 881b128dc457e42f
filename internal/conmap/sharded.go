package conmap

import (
	"sync"
	"unsafe"
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
// engines. Meet takes one lock and makes one probe: the first facet to
// arrive on a ridge stores its entry, and the second finds it, takes the
// partner and removes the entry. Algorithm 3 reads a ridge's entry only
// until its second facet arrives (lines 20–22), so the table holds only the
// ridges still waiting for a partner — the open boundary of the hull under
// construction, a few percent of the ridges a build creates — and a
// construction that finishes leaves it empty.
//
// Each shard is a flat linear-probing array of (key word, value) slots, a
// lock-guarded instance of the Algorithm 4 table that doubles before it is
// half full, so it never fills. An answered entry is removed by backward-
// shift deletion: the later entries of its probe run move back over the
// hole, so no tombstone is left and every probe run stays as short as the
// live entries make it. Keys of one or two indices are exact (see Key), so
// their slot holds nothing but the word and the value. A longer key's ids,
// which settle matches on equal words, are kept in a parallel column of id
// slices that moves with the slots; a shard allocates the column only once
// such a key arrives. Key word 0 marks an empty slot; MakeKey gives it to
// no ridge of point indices.
type ShardedMap[V comparable] struct {
	shards [shardCount]shard[V]
}

type shard[V comparable] struct {
	mu    sync.Mutex
	slots []slot[V]
	// ids[i] holds the ids of slot i's key when it has 3+ indices, and is
	// nil for an exact key. The column itself is nil until a long key lands;
	// sawLong records that one did since the last Reset.
	ids     [][]int32
	sawLong bool
	count   int
}

type slot[V comparable] struct {
	key uint64
	val V
}

// NewShardedMap returns an empty ShardedMap pre-sized for expected ridges
// waiting for their partner at once (not the ridges a build creates: an
// answered ridge leaves the table). The hint may be zero; shards grow as
// needed.
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
func (sh *shard[V]) find(k Key) (uint64, bool) {
	mask := uint64(len(sh.slots) - 1)
	exact := k.exact()
	for i := k.hash & mask; ; i = (i + 1) & mask {
		w := sh.slots[i].key
		if w == 0 {
			return i, false
		}
		if w != k.hash {
			continue
		}
		var ids []int32 // stays nil for a slot holding an exact key
		if sh.ids != nil {
			ids = sh.ids[i]
		}
		if exact && ids == nil || !exact && ids != nil && equalIDs(ids, k.id) {
			return i, true
		}
	}
}

// grow doubles the slot array and reinserts every entry. The caller holds
// the lock.
func (sh *shard[V]) grow() {
	old, oldIDs := sh.slots, sh.ids
	sh.slots = make([]slot[V], 2*len(old))
	if oldIDs != nil {
		sh.ids = make([][]int32, len(sh.slots))
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
		if oldIDs != nil {
			sh.ids[i] = oldIDs[j]
		}
	}
}

// remove empties slot i by backward-shift deletion: each later entry of the
// probe run whose home slot does not lie strictly between the hole and it
// moves back into the hole, which moves on to the entry's old slot, until
// an empty slot ends the run. The caller holds the lock.
func (sh *shard[V]) remove(i uint64) {
	mask := uint64(len(sh.slots) - 1)
	for j := (i + 1) & mask; sh.slots[j].key != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i when its probe from home
		// passed i: its home is no nearer to j than i is.
		if (j-sh.slots[j].key)&mask >= (j-i)&mask {
			sh.slots[i] = sh.slots[j]
			if sh.ids != nil {
				sh.ids[i] = sh.ids[j]
			}
			i = j
		}
	}
	sh.slots[i] = slot[V]{}
	if sh.ids != nil {
		sh.ids[i] = nil
	}
	sh.count--
}

// Meet registers v on ridge k and returns the ridge's partner: the zero V
// when v arrived first, which leaves v's entry for the partner, and the
// first facet's value when v arrived second, which removes the entry. The
// sharded map grows on demand, so its error is always nil — it is the
// terminal rung of the capacity degradation ladder.
func (m *ShardedMap[V]) Meet(k Key, v V) (V, error) {
	sh := &m.shards[k.hash>>shardShift]
	sh.mu.Lock()
	i, found := sh.find(k)
	if found {
		partner := sh.slots[i].val
		sh.remove(i)
		sh.mu.Unlock()
		return partner, nil
	}
	if 2*(sh.count+1) > len(sh.slots) {
		sh.grow()
		i, _ = sh.find(k)
	}
	sh.slots[i] = slot[V]{key: k.hash, val: v}
	if !k.exact() {
		if sh.ids == nil {
			sh.ids = make([][]int32, len(sh.slots))
		}
		sh.ids[i] = k.id
		sh.sawLong = true
	}
	sh.count++
	sh.mu.Unlock()
	var zero V
	return zero, nil
}

// Reset empties the map for the next construction. A construction that
// finished has already emptied every shard, so Reset clears only shards
// that still hold entries, which only a failed or canceled construction
// leaves. Every shard keeps its grown slot array, so a reset map re-fills
// to its previous size without rehashing or allocation — the pooled-Builder
// steady state. A shard keeps its long-key column only if a long key landed
// in it since the last Reset, so a map that once held longer ridges does
// not make every later build of short ones probe an idle column. Must not
// race with any other operation.
func (m *ShardedMap[V]) Reset() {
	for i := range m.shards {
		sh := &m.shards[i]
		if sh.count > 0 {
			clear(sh.slots)
			clear(sh.ids)
			sh.count = 0
		}
		if !sh.sawLong {
			sh.ids = nil
		}
		sh.sawLong = false
	}
}

// Bytes returns the exact size of the slot arrays and long-key columns the
// shards retain. Must not race with any other operation.
func (m *ShardedMap[V]) Bytes() int64 {
	var n int64
	for i := range m.shards {
		sh := &m.shards[i]
		n += int64(len(sh.slots))*int64(unsafe.Sizeof(sh.slots[0])) + int64(len(sh.ids))*int64(unsafe.Sizeof([]int32(nil)))
	}
	return n
}

// Len reports the number of stored ridges: those still waiting for their
// partner.
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

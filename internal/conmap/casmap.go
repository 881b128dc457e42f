package conmap

import (
	"fmt"
	"sync/atomic"
	"unsafe"

	"parhull/internal/faultinject"
	"parhull/internal/sched"
)

// CASMap is Algorithm 4 of the paper: a fixed-capacity linear-probing hash
// table whose slots are claimed with CompareAndSwap. The first facet to
// arrive on a ridge occupies a slot; the second facet's CAS fails on the
// duplicate key and InsertAndSet returns false.
type CASMap[V comparable] struct {
	slots []atomic.Pointer[casEntry[V]]
	mask  uint64
	inj   *faultinject.Injector
}

type casEntry[V comparable] struct {
	key Key
	val V
}

// NewCASMap returns a CASMap sized for the expected number of distinct
// ridges. The capacity is fixed; exceeding it yields ErrCapacity (size
// generously — the hull engines bound the live ridge count by d times the
// facets created).
func NewCASMap[V comparable](expected int) *CASMap[V] {
	c := roundCapacity(expected)
	return &CASMap[V]{slots: make([]atomic.Pointer[casEntry[V]], c), mask: uint64(c - 1)}
}

// Inject arms m with a fault-injection schedule (tests only; nil is the
// production default). Returns m for chaining.
func (m *CASMap[V]) Inject(in *faultinject.Injector) *CASMap[V] {
	m.inj = in
	return m
}

// InsertAndSet implements Algorithm 4's InsertAndSet: probe from the hash
// index; CAS the entry into the first empty slot (return true), unless a
// slot holding the same key is found first (return false).
func (m *CASMap[V]) InsertAndSet(k Key, v V) (bool, error) {
	if m.inj.Fail(faultinject.SiteMapInsert) {
		return false, fmt.Errorf("conmap: CASMap injected failure for ridge %v: %w", k, ErrCapacity)
	}
	e := &casEntry[V]{key: k, val: v}
	i := k.hash & m.mask
	for probes := 0; probes <= len(m.slots); probes++ {
		if m.slots[i].CompareAndSwap(nil, e) {
			return true, nil
		}
		// CAS failed: either a duplicate key (the other facet got here
		// first) or a hash collision; linear-probe past collisions.
		if cur := m.slots[i].Load(); cur != nil && cur.key.Equal(k) {
			return false, nil
		}
		i = (i + 1) & m.mask
	}
	return false, fmt.Errorf("conmap: CASMap with %d slots: %w", len(m.slots), ErrCapacity)
}

// GetValue returns the value stored for k. In Algorithm 4 each key occupies
// exactly one slot (the loser never inserts), so the stored value is the
// other facet; not is accepted for symmetry with TASMap.GetValue.
func (m *CASMap[V]) GetValue(k Key, not V) V {
	i := k.hash & m.mask
	for probes := 0; probes <= len(m.slots); probes++ {
		cur := m.slots[i].Load()
		if cur == nil {
			// An empty slot ends the probe run: the key was never inserted —
			// caller misuse, not a capacity condition.
			panic("conmap: GetValue on a ridge that was never inserted")
		}
		if cur.key.Equal(k) {
			return cur.val
		}
		i = (i + 1) & m.mask
	}
	// The probe run wrapped the whole table without an empty slot: the table
	// is exhausted and the one-loser protocol's guarantees no longer hold.
	// Report capacity so the degradation ladder retries with a bigger table.
	panic(fmt.Errorf("conmap: CASMap with %d slots wrapped probing ridge %v: %w",
		len(m.slots), k, ErrCapacity))
}

// Meet implements RidgeMap with Algorithm 4 as written: InsertAndSet, then
// GetValue for the loser.
func (m *CASMap[V]) Meet(k Key, v V) (V, error) {
	var zero V
	if first, err := m.InsertAndSet(k, v); first || err != nil {
		return zero, err
	}
	return m.GetValue(k, v), nil
}

// Cap returns the slot count, so a pooled owner can tell whether a retained
// table satisfies a new capacity requirement.
func (m *CASMap[V]) Cap() int { return len(m.slots) }

// Reset re-zeroes every slot in parallel, keeping the table allocated for
// the next construction. Must not race with any other operation.
func (m *CASMap[V]) Reset() {
	sched.ParallelFor(len(m.slots), 1<<16, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			m.slots[i].Store(nil)
		}
	})
}

// Bytes returns the exact size of the slot array.
func (m *CASMap[V]) Bytes() int64 { return int64(len(m.slots)) * int64(unsafe.Sizeof(m.slots[0])) }

// Len reports the number of occupied slots (linear scan; for tests/stats).
func (m *CASMap[V]) Len() int {
	n := 0
	for i := range m.slots {
		if m.slots[i].Load() != nil {
			n++
		}
	}
	return n
}

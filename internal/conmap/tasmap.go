package conmap

import (
	"fmt"
	"sync/atomic"
	"unsafe"

	"parhull/internal/faultinject"
	"parhull/internal/sched"
)

// TASMap is Algorithm 5 of the paper (Appendix A): the ridge multimap
// implemented with only the TestAndSet primitive, as required by the
// binary-forking model without CompareAndSwap. Each slot carries two flags:
// taken (slot reservation) and check (the consensus bit that elects the
// loser), plus the key-value data.
//
// Unlike CASMap, both facets insert their own entry; the second pass over
// the probe run performs TestAndSet on the check flag of every slot holding
// the ridge key, and the facet that loses a TestAndSet returns false
// (Theorem A.1 proves exactly one loses).
type TASMap[V comparable] struct {
	slots []tasSlot[V]
	mask  uint64
	inj   *faultinject.Injector
}

type tasSlot[V comparable] struct {
	taken atomic.Bool
	check atomic.Bool
	data  atomic.Pointer[casEntry[V]]
}

// NewTASMap returns a TASMap sized for the expected number of insertions
// (two per ridge). Capacity is fixed; exceeding it yields ErrCapacity.
func NewTASMap[V comparable](expected int) *TASMap[V] {
	c := roundCapacity(2 * expected)
	return &TASMap[V]{slots: make([]tasSlot[V], c), mask: uint64(c - 1)}
}

// Inject arms m with a fault-injection schedule (tests only; nil is the
// production default). Returns m for chaining.
func (m *TASMap[V]) Inject(in *faultinject.Injector) *TASMap[V] {
	m.inj = in
	return m
}

// testAndSet is the TAS primitive: atomically set b and report whether the
// set succeeded (b was previously false).
func testAndSet(b *atomic.Bool) bool { return !b.Swap(true) }

// InsertAndSet implements Algorithm 5: reserve a slot with TAS(taken), write
// the data, then re-scan the probe run from the home index performing
// TAS(check) on every slot whose key equals k; losing any of those
// TestAndSets means the other facet already passed here, so return false.
func (m *TASMap[V]) InsertAndSet(k Key, v V) (bool, error) {
	if m.inj.Fail(faultinject.SiteMapInsert) {
		return false, fmt.Errorf("conmap: TASMap injected failure for ridge %v: %w", k, ErrCapacity)
	}
	// First pass: reserve a slot (Lines 2-5 of Algorithm 5).
	i := k.hash & m.mask
	for probes := 0; ; probes++ {
		if probes > len(m.slots) {
			return false, fmt.Errorf("conmap: TASMap with %d slots: %w", len(m.slots), ErrCapacity)
		}
		if testAndSet(&m.slots[i].taken) {
			break
		}
		i = (i + 1) & m.mask
	}
	m.slots[i].data.Store(&casEntry[V]{key: k, val: v})

	// Second pass: walk the taken run from the home index (Lines 6-12).
	j := k.hash & m.mask
	for probes := 0; m.slots[j].taken.Load(); probes++ {
		if probes > len(m.slots) {
			return false, fmt.Errorf("conmap: TASMap probe run wrapped %d slots: %w", len(m.slots), ErrCapacity)
		}
		// A slot can be taken but not yet written by its owner; its key is
		// then unknown — but it cannot be one of k's two slots, both of
		// which are written before their owners reach this pass.
		if e := m.slots[j].data.Load(); e != nil && e.key.Equal(k) {
			if !testAndSet(&m.slots[j].check) {
				return false, nil
			}
		}
		j = (j + 1) & m.mask
	}
	return true, nil
}

// GetValue scans the probe run for the entry with key k whose value differs
// from not. Theorem A.2 guarantees both entries are written before the
// losing InsertAndSet returns, so in a correctly sized table this always
// finds the other facet. In an exhausted table the theorem's preconditions
// fail (probe runs wrap, partner insertions error out mid-protocol), so a
// missing partner is reported as capacity exhaustion: the panic value is an
// error wrapping ErrCapacity, which the scheduler's containment layer
// surfaces intact for the degradation ladder to retry on.
func (m *TASMap[V]) GetValue(k Key, not V) V {
	j := k.hash & m.mask
	for probes := 0; m.slots[j].taken.Load(); probes++ {
		if probes > len(m.slots) {
			break
		}
		if e := m.slots[j].data.Load(); e != nil && e.key.Equal(k) && e.val != not {
			return e.val
		}
		j = (j + 1) & m.mask
	}
	panic(fmt.Errorf("conmap: TASMap with %d slots lost the partner of ridge %v: %w",
		len(m.slots), k, ErrCapacity))
}

// Meet implements RidgeMap with Algorithm 5 as written: InsertAndSet, then
// GetValue for the loser, which finds the one entry of k that is not v.
func (m *TASMap[V]) Meet(k Key, v V) (V, error) {
	var zero V
	if first, err := m.InsertAndSet(k, v); first || err != nil {
		return zero, err
	}
	return m.GetValue(k, v), nil
}

// Cap returns the slot count, so a pooled owner can tell whether a retained
// table satisfies a new capacity requirement.
func (m *TASMap[V]) Cap() int { return len(m.slots) }

// Reset re-zeroes every slot in parallel, keeping the table allocated for
// the next construction. Must not race with any other operation.
func (m *TASMap[V]) Reset() {
	sched.ParallelFor(len(m.slots), 1<<15, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s := &m.slots[i]
			s.taken.Store(false)
			s.check.Store(false)
			s.data.Store(nil)
		}
	})
}

// Bytes returns the exact size of the slot array.
func (m *TASMap[V]) Bytes() int64 { return int64(len(m.slots)) * int64(unsafe.Sizeof(m.slots[0])) }

// Len reports the number of reserved slots (linear scan; for tests/stats).
func (m *TASMap[V]) Len() int {
	n := 0
	for i := range m.slots {
		if m.slots[i].taken.Load() {
			n++
		}
	}
	return n
}

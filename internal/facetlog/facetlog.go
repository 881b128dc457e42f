// Package facetlog provides a striped append-only log for the facet records
// the hull engines accumulate. The seed engines funneled every facet
// creation through one global mutex-guarded slice; under the parallel
// schedules that lock serializes the record path of every ridge chain. The
// log shards appends across cache-line-padded stripes selected by a cheap
// key hash, so concurrent creators almost never touch the same stripe.
//
// Determinism note: Snapshot concatenates stripes in index order, so with a
// single stripe (stripes <= 1) the log preserves exact append order — the
// sequential engines use that to keep Result.Created in creation order.
// With several stripes the global order is schedule-dependent, which is the
// same contract the parallel engines always had.
package facetlog

import "sync"

// Log is a striped append-only collection of T.
type Log[T any] struct {
	stripes []stripe[T]
	mask    uint32
}

type stripe[T any] struct {
	mu sync.Mutex
	xs []T
	// Pad to a cache line so neighboring stripes do not false-share.
	_ [32]byte
}

// New returns a Log with at least the requested number of stripes (rounded
// up to a power of two, minimum 1).
func New[T any](stripes int) *Log[T] {
	l := &Log[T]{}
	l.Reset(stripes)
	return l
}

// Append records x under the stripe selected by key. Keys need no quality:
// they are spread by a Fibonacci multiply before masking.
func (l *Log[T]) Append(key uint32, x T) {
	s := &l.stripes[(key*2654435761)&l.mask]
	s.mu.Lock()
	s.xs = append(s.xs, x)
	s.mu.Unlock()
}

// Len reports the total number of appended elements.
func (l *Log[T]) Len() int {
	n := 0
	for i := range l.stripes {
		s := &l.stripes[i]
		s.mu.Lock()
		n += len(s.xs)
		s.mu.Unlock()
	}
	return n
}

// Snapshot returns every appended element, stripes concatenated in index
// order. It must not race with Append (the engines call it after the
// construction joins).
func (l *Log[T]) Snapshot() []T {
	if len(l.stripes) == 1 {
		return l.stripes[0].xs
	}
	n := 0
	for i := range l.stripes {
		n += len(l.stripes[i].xs)
	}
	return l.appendAll(make([]T, 0, n))
}

// SnapshotInto is Snapshot appending into caller-owned buf (always a copy,
// even with one stripe), for pooled engines that reuse the result backing
// across constructions.
func (l *Log[T]) SnapshotInto(buf []T) []T {
	return l.appendAll(buf)
}

func (l *Log[T]) appendAll(out []T) []T {
	for i := range l.stripes {
		out = append(out, l.stripes[i].xs...)
	}
	return out
}

// Reset truncates every stripe, keeping the stripe backing arrays for
// reuse, and re-stripes the log as New(stripes) would. Stored elements are
// zeroed so the log does not retain them. A log that shrinks keeps its
// spare stripes for a later regrowth, so an owner alternating the
// sequential engine (one stripe, creation order) with a parallel one
// allocates nothing once both widths have run. Must not race with Append.
func (l *Log[T]) Reset(stripes int) {
	all := l.stripes[:cap(l.stripes)]
	for i := range all {
		s := &all[i]
		clear(s.xs)
		s.xs = s.xs[:0]
	}
	n := 1
	for n < stripes {
		n <<= 1
	}
	if n > len(all) {
		all = make([]stripe[T], n)
	}
	l.stripes, l.mask = all[:n], uint32(n-1)
}

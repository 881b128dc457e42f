// Package conmap implements the concurrent ridge multimap M of the paper's
// Algorithm 3: a map from ridges to the (at most two) facets incident on
// them, whose one handshake, Meet, decides which of a ridge's two facets
// is responsible for processing it and hands that facet its partner.
//
// Three interchangeable implementations are provided:
//
//   - CASMap    — Algorithm 4: linear probing + CompareAndSwap (Sec 5.2).
//   - TASMap    — Algorithm 5: taken/check flags + TestAndSet (Appendix A),
//     a faithful port of the weaker-primitive protocol.
//   - ShardedMap — a growable table of mutex-guarded flat linear-probing
//     shards, the production default when the ridge count is not known in
//     advance. It removes a ridge when the second facet arrives, so it
//     holds only the ridges still waiting for a partner.
//
// All three satisfy the one-loser contract (Theorems A.1/A.2): of the two
// Meet calls on the same ridge, exactly one returns the other facet, which
// is visible by the time it returns. CASMap and TASMap keep the paper's
// two-step protocol as written — Meet is their InsertAndSet, followed by
// GetValue for the loser.
package conmap

import (
	"errors"
	"fmt"
)

// ErrCapacity reports that a fixed-capacity table (Algorithm 4/5) ran out of
// slots: the probe walked the whole table without finding a home for the
// key. It is the typed form of what used to be a panic — the engines abort
// the construction cleanly and the public layer climbs the degradation
// ladder (retry with a doubled table, then fall back to the sharded map).
var ErrCapacity = errors.New("conmap: fixed-capacity ridge table exhausted")

// Key identifies a ridge: a canonical (strictly ascending) tuple of point
// indices plus a 64-bit key word. Keys are value types; the id slice must
// not be mutated after MakeKey.
//
// A ridge of one or two indices (a 2D hull vertex, a 3D hull edge, a
// Delaunay edge) has an exact key word: the splitmix64 finalizer — a
// bijection on 64-bit words — of the packed index pair, so two such keys are
// equal exactly when their words are, and a table needs no id slice to tell
// them apart. Longer ridges hash their indices and compare ids on a match.
type Key struct {
	hash uint64
	id   []int32
}

// MakeKey builds a Key from the canonical ridge id: point indices, so
// non-negative, in strictly ascending order. The slice is retained, not
// copied.
func MakeKey(ids []int32) Key {
	switch len(ids) {
	case 1:
		// A single index packs as the pair (a, a), which no canonical
		// two-index ridge can be, so 1- and 2-index keys never meet.
		return Key{hash: exactWord(ids[0], ids[0]), id: ids}
	case 2:
		return Key{hash: exactWord(ids[0], ids[1]), id: ids}
	}
	// Word-at-a-time FNV-1a over the indices, followed by the splitmix64
	// finalizer so the low bits (used for power-of-two table masking) see
	// the whole word even though each step folds in 32 bits at once.
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range ids {
		h ^= uint64(uint32(v))
		h *= prime64
	}
	h = mix64(h)
	if h == 0 {
		h = 1 // 0 marks an empty ShardedMap slot; long keys compare ids anyway
	}
	return Key{hash: h, id: ids}
}

// exactWord is the exact key word of the index pair (a, b): the mix of the
// complemented packed pair, so the word is 0 — which ShardedMap reserves for
// its empty slots — only for a == b == -1, an index no point has.
func exactWord(a, b int32) uint64 {
	return mix64(^(uint64(uint32(a))<<32 | uint64(uint32(b))))
}

// mix64 is the splitmix64 finalizer: every step is invertible, so distinct
// inputs give distinct outputs, and each output bit depends on every input
// bit.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// exact reports whether k's word alone identifies it (one or two indices).
func (k Key) exact() bool { return len(k.id) == 1 || len(k.id) == 2 }

// Key1 builds a Key for a single-index ridge (the 2D case, where a ridge is
// a hull vertex).
func Key1(id int32) Key { return MakeKey([]int32{id}) }

// Hash returns the key word of k: a hash, which for keys of one or two
// indices is exact.
func (k Key) Hash() uint64 { return k.hash }

// Equal reports whether k and o name the same ridge.
func (k Key) Equal(o Key) bool {
	if k.hash != o.hash || len(k.id) != len(o.id) {
		return false
	}
	if k.exact() {
		return true
	}
	return equalIDs(k.id, o.id)
}

func equalIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// String formats the ridge id.
func (k Key) String() string { return fmt.Sprint(k.id) }

// RidgeMap is the multimap interface used by the parallel hull engines.
// V is the facet handle type (a pointer in practice); its zero value means
// "no partner yet", so a registered value must never be the zero V.
type RidgeMap[V comparable] interface {
	// Meet registers v as a facet incident on ridge k and returns the
	// ridge's other facet. It returns (zero, nil) if v is the first facet
	// to arrive; the caller then leaves the ridge for the second facet. It
	// returns (partner, nil) if the other facet already registered, in
	// which case the caller is responsible for processing the ridge (lines
	// 20–22 of Algorithm 3). Of the two Meet calls on one ridge, exactly
	// one gets the partner. A non-nil error (wrapping ErrCapacity for the
	// fixed tables) means the handshake could not be performed and the
	// construction must abort; the partner is then meaningless.
	Meet(k Key, v V) (V, error)
	// Bytes returns the exact size of the table's slots (for the sharded
	// map, its slot arrays and long-key columns).
	Bytes() int64
}

// roundCapacity returns the smallest power of two >= 2*expected (minimum 8),
// giving the fixed-capacity tables a load factor of at most 1/2.
func roundCapacity(expected int) int {
	n := 8
	for n < 2*expected {
		n <<= 1
	}
	return n
}

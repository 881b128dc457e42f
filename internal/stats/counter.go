package stats

import "sync/atomic"

// cacheLine is the assumed cache-line size used to pad counter shards so
// concurrent increments from different workers do not false-share.
const cacheLine = 64

type paddedCounter struct {
	v atomic.Int64
	_ [cacheLine - 8]byte
}

// ShardedCounter is a low-contention counter for hot-path work accounting
// (e.g. counting visibility tests across goroutines). Increment pressure is
// spread across shards; Load sums them.
//
// A nil *ShardedCounter is valid and all operations on it are no-ops, so
// engines can make instrumentation strictly optional without branching.
type ShardedCounter struct {
	shards []paddedCounter
	mask   uint64
}

// NewShardedCounter returns a counter with the given number of shards,
// rounded up to a power of two (minimum 1).
func NewShardedCounter(shards int) *ShardedCounter {
	n := 1
	for n < shards {
		n <<= 1
	}
	return &ShardedCounter{shards: make([]paddedCounter, n), mask: uint64(n - 1)}
}

// Add adds delta to the shard selected by key (callers typically pass a
// worker id or a cheap hash).
func (c *ShardedCounter) Add(key uint64, delta int64) {
	if c == nil {
		return
	}
	c.shards[key&c.mask].v.Add(delta)
}

// Inc is Add(key, 1).
func (c *ShardedCounter) Inc(key uint64) { c.Add(key, 1) }

// Load returns the current total across all shards.
func (c *ShardedCounter) Load() int64 {
	if c == nil {
		return 0
	}
	var t int64
	for i := range c.shards {
		t += c.shards[i].v.Load()
	}
	return t
}

// Reset zeroes all shards.
func (c *ShardedCounter) Reset() {
	if c == nil {
		return
	}
	for i := range c.shards {
		c.shards[i].v.Store(0)
	}
}

package stats

import "sync/atomic"

// cacheLine is the assumed cache-line size used to pad counter shards so
// concurrent increments from different workers do not false-share.
const cacheLine = 64

// counterShards is the number of shards of a ShardedCounter; a key selects
// its shard modulo this.
const counterShards = 64

type paddedCounter struct {
	v atomic.Int64
	_ [cacheLine - 8]byte
}

// ShardedCounter is a low-contention counter for hot-path work accounting
// (e.g. counting visibility tests across goroutines). Increment pressure is
// spread across shards; Load sums them. The shards are held by value, so
// the zero value is ready and a counter embedded in a retained struct costs
// no allocation.
type ShardedCounter struct {
	shards [counterShards]paddedCounter
}

// Add adds delta to the shard selected by key (callers typically pass a
// worker id or a cheap hash).
func (c *ShardedCounter) Add(key uint64, delta int64) {
	c.shards[key%counterShards].v.Add(delta)
}

// Inc is Add(key, 1).
func (c *ShardedCounter) Inc(key uint64) { c.Add(key, 1) }

// Load returns the current total across all shards.
func (c *ShardedCounter) Load() int64 {
	var t int64
	for i := range c.shards {
		t += c.shards[i].v.Load()
	}
	return t
}

// Reset zeroes all shards.
func (c *ShardedCounter) Reset() {
	for i := range c.shards {
		c.shards[i].v.Store(0)
	}
}

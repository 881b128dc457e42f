//go:build race

package prehull

// raceEnabled reports a -race build: sync.Pool then drops some of the
// pooled conflict scratch of the sub-hulls, so allocation counts rise, and
// the single-goroutine oracle comparisons run at their smaller sizes.
const raceEnabled = true

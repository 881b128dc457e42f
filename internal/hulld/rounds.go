package hulld

import (
	eng "parhull/internal/engine"
	"parhull/internal/geom"
)

// Rounds computes the d-dimensional hull with Algorithm 3 under the
// round-synchronous schedule of Theorem 5.4 (engine.Rounds): each ready
// ProcessRidge call executes one step per round with a global barrier between
// rounds, so Stats.Rounds is the recursion depth of Theorem 5.3 and
// Stats.RoundWidths the ready frontier of every round. Flips (lines 11-12)
// run inline and do not consume a round. It runs on Par's executor, arenas
// and step, so Options means the same under both.
func Rounds(pts []geom.Point, opt *Options) (*Result, error) { return run(pts, opt, eng.SchedRounds) }

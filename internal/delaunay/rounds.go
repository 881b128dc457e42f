package delaunay

import (
	eng "parhull/internal/engine"
	"parhull/internal/geom"
)

// Rounds computes the Delaunay triangulation with Algorithm 3 under the
// round-synchronous schedule of Theorem 5.4 (engine.Rounds): each ready
// ProcessRidge call executes one step per round with a global barrier
// between rounds, so Stats.Rounds is the recursion depth of the dependence
// structure and Stats.RoundWidths the per-round ready frontier.
func Rounds(pts []geom.Point, opt *Options) (*Result, error) {
	e, err := newDEngine(pts, opt.counters(), opt.filterGrain(), parStripes(), opt.noPredCache())
	if err != nil {
		return nil, err
	}
	root, outers, edges, err := e.initial()
	if err != nil {
		return nil, err
	}
	initial := make([]eng.Task[Triangle, []int32], 0, 3)
	for k := 0; k < 3; k++ {
		initial = append(initial, eng.Task[Triangle, []int32]{T1: root, R: edges[k], T2: outers[k]})
	}
	rounds, widths, err := eng.Rounds(opt.config(e), initial, nil)
	if err != nil {
		return nil, err
	}
	res, err := e.collectResult(rounds)
	if err != nil {
		return nil, err
	}
	res.Stats.RoundWidths = widths
	return res, nil
}

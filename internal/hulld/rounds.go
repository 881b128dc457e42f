package hulld

import (
	eng "parhull/internal/engine"
	"parhull/internal/geom"
)

// Rounds computes the d-dimensional hull with Algorithm 3 under the
// round-synchronous schedule of Theorem 5.4 (engine.Rounds): each ready
// ProcessRidge call executes one step per round with a global barrier between
// rounds, so Stats.Rounds is the recursion depth of Theorem 5.3. Flips (lines
// 11-12) run inline and do not consume a round.
func Rounds(pts []geom.Point, opt *Options) (*Result, error) {
	o := opt.or()
	e, facets, err := o.start(pts, o.FilterGrain, parStripes())
	if err != nil {
		return nil, err
	}
	var initial []eng.Task[Facet, []int32]
	initialTasks(e.d, facets, func(tk eng.Task[Facet, []int32]) { initial = append(initial, tk) })
	rounds, widths, err := eng.Rounds(o.config(e, len(pts)), initial, nil)
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

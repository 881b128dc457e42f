package hull2d

import (
	"sort"

	eng "parhull/internal/engine"
	"parhull/internal/geom"
)

// Event is one ProcessRidge outcome in the round-synchronous schedule,
// classified by engine.EventKind. For engine.EventCreated, A is the new edge
// and B the edge it replaced; for the other kinds A and B are the two facets
// incident on the ridge.
type Event struct {
	Round int
	Kind  eng.EventKind
	A, B  [2]int32
}

// Trace is the per-round event log (the machine-readable form of the
// paper's Figure 1 narrative).
type Trace struct {
	Events []Event
}

// ByRound returns the events of one round, sorted canonically.
func (tr *Trace) ByRound(round int) []Event {
	var out []Event
	for _, ev := range tr.Events {
		if ev.Round == round {
			out = append(out, ev)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.A != b.A {
			return less2(a.A, b.A)
		}
		return less2(a.B, b.B)
	})
	return out
}

func less2(a, b [2]int32) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}

// observe records the rounds events of engine.Rounds in the 2D Trace; run
// installs it only when Options.Trace asks for one.
func (e *engine) observe(kind eng.EventKind, round int32, a, b *Facet) {
	ev := Event{Round: int(round), Kind: kind, A: [2]int32{a.A, a.B}, B: [2]int32{b.A, b.B}}
	e.traceMu.Lock()
	e.trace.Events = append(e.trace.Events, ev)
	e.traceMu.Unlock()
}

// Rounds computes the convex hull with Algorithm 3 under the
// round-synchronous PRAM-style schedule of Theorem 5.4: every ready
// ProcessRidge call executes exactly one step per round, with a barrier
// between rounds (engine.Rounds, on Par's executor, arenas and step).
// Stats.Rounds is then the recursion depth of Theorem 5.3. The flip of lines
// 11-12 is performed inline (it does not consume a round), matching the
// Figure 1 narrative.
//
// The returned Result additionally carries a Trace when opt.Trace is set.
func Rounds(pts []geom.Point, opt *Options) (*Result, *Trace, error) {
	return run(pts, opt, eng.SchedRounds)
}

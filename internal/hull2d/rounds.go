package hull2d

import (
	"sort"

	eng "parhull/internal/engine"
	"parhull/internal/geom"
)

// EventKind classifies a trace event of the rounds engine.
type EventKind int

const (
	// EventCreated records a new facet replacing an old one (lines 14-17).
	EventCreated EventKind = iota
	// EventBuried records an equal-pivot ridge burying both facets (line 10).
	EventBuried
	// EventFinal records a ridge whose facets both have empty conflict sets
	// (line 9).
	EventFinal
)

func (k EventKind) String() string {
	switch k {
	case EventCreated:
		return "created"
	case EventBuried:
		return "buried"
	default:
		return "final"
	}
}

// Event is one ProcessRidge outcome in the round-synchronous schedule.
// For EventCreated, A is the new edge and B the edge it replaced; for the
// other kinds A and B are the two facets incident on the ridge.
type Event struct {
	Round int
	Kind  EventKind
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

func (e *engine) traceEvent(ev Event) {
	if e.trace == nil {
		return
	}
	e.traceMu.Lock()
	e.trace.Events = append(e.trace.Events, ev)
	e.traceMu.Unlock()
}

// observe maps the driver's rounds events onto the 2D Trace.
func (e *engine) observe(kind eng.EventKind, round int32, a, b *Facet) {
	var k EventKind
	switch kind {
	case eng.EventCreated:
		k = EventCreated
	case eng.EventBuried:
		k = EventBuried
	default:
		k = EventFinal
	}
	e.traceEvent(Event{Round: int(round), Kind: k,
		A: [2]int32{a.A, a.B}, B: [2]int32{b.A, b.B}})
}

// Rounds computes the convex hull with Algorithm 3 under the
// round-synchronous PRAM-style schedule of Theorem 5.4: every ready
// ProcessRidge call executes exactly one step per round, with a barrier
// between rounds (engine.Rounds). Stats.Rounds is then the recursion depth of
// Theorem 5.3. The flip of lines 11-12 is performed inline (it does not
// consume a round), matching the Figure 1 narrative.
//
// The returned Result additionally carries a Trace when opt.Trace is set.
func Rounds(pts []geom.Point, opt *Options) (*Result, *Trace, error) {
	o := opt.or()
	e, facets, err := o.start(pts, o.FilterGrain, parStripes())
	if err != nil {
		return nil, nil, err
	}
	if o.Trace {
		e.trace = &Trace{}
	}

	var initial []eng.Task[Facet, int32]
	initialTasks(facets, func(tk eng.Task[Facet, int32]) { initial = append(initial, tk) })
	var observe func(eng.EventKind, int32, *Facet, *Facet)
	if e.trace != nil {
		observe = e.observe
	}
	rounds, widths, err := eng.Rounds(o.config(e), initial, observe)
	if err != nil {
		return nil, nil, err
	}
	res, err := e.collectResult(rounds)
	if err != nil {
		return nil, nil, err
	}
	res.Stats.RoundWidths = widths
	return res, e.trace, nil
}

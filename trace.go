package parhull

import (
	"parhull/internal/hull2d"
)

// TraceEventKind classifies an event in a round-by-round trace. Its values
// are those of the engine's event kinds, in the same order.
type TraceEventKind int

const (
	// TraceCreated records a new edge replacing an old one.
	TraceCreated TraceEventKind = iota
	// TraceBuried records an equal-pivot ridge burying both edges.
	TraceBuried
	// TraceFinal records a ridge whose edges both have empty conflict sets.
	TraceFinal
)

func (k TraceEventKind) String() string {
	switch k {
	case TraceCreated:
		return "created"
	case TraceBuried:
		return "buried"
	default:
		return "final"
	}
}

// TraceEvent is one ProcessRidge outcome under the round-synchronous
// schedule. For TraceCreated, A is the new edge and B the edge it replaced;
// otherwise A and B are the two edges incident on the ridge. Edges are
// directed vertex-index pairs into the input slice.
type TraceEvent struct {
	Kind TraceEventKind
	A, B [2]int
}

// TraceRound groups the events of one synchronous round.
type TraceRound struct {
	Round  int
	Events []TraceEvent
}

// Hull2DTrace runs the round-synchronous parallel engine (Algorithm 3 under
// the Theorem 5.4 schedule) on 2D points and returns the hull along with a
// round-by-round event log — the machine-readable form of the paper's
// Figure 1 walkthrough.
//
// The first base points must form a strictly convex CCW polygon (base >= 3),
// which seeds the construction; the remaining points are inserted in input
// order. Use base = 3 for ordinary inputs, or Figure1Points' 7-gon to
// reproduce the paper's example.
func Hull2DTrace(pts []Point, base int) (*Hull2DResult, []TraceRound, error) {
	res, tr, err := hull2d.Rounds(pts, &hull2d.Options{Base: base, Trace: true})
	if err != nil {
		return nil, nil, err
	}
	out := &Hull2DResult{Stats: res.Stats}
	for _, v := range res.Vertices {
		out.Vertices = append(out.Vertices, int(v))
	}
	var rounds []TraceRound
	for r := 1; r <= res.Stats.Rounds; r++ {
		evs := tr.ByRound(r)
		tr2 := TraceRound{Round: r}
		for _, ev := range evs {
			tr2.Events = append(tr2.Events, TraceEvent{
				Kind: TraceEventKind(ev.Kind),
				A:    [2]int{int(ev.A[0]), int(ev.A[1])},
				B:    [2]int{int(ev.B[0]), int(ev.B[1])},
			})
		}
		rounds = append(rounds, tr2)
	}
	return out, rounds, nil
}

// Figure1Points returns the point set of the paper's Figure 1: the convex
// 7-gon u-v-w-x-y-z-t (indices 0..6, counterclockwise) followed by the
// points a, b, c (indices 7, 8, 9) to be inserted in that order. The
// visibility pattern matches the paper exactly: c sees edges v-w, w-x, x-y,
// y-z; b sees w-x, x-y; a sees x-y, y-z. Pass the result to Hull2DTrace
// with base = 7 to replay the figure's three rounds.
//
// Labels: u=0 v=1 w=2 x=3 y=4 z=5 t=6 a=7 b=8 c=9.
func Figure1Points() (pts []Point, base int) {
	return []Point{
		{-3, 0},      // 0: u
		{-2, -1.4},   // 1: v
		{-1, -2.0},   // 2: w
		{0, -2.2},    // 3: x
		{1, -2.0},    // 4: y
		{2, -1.4},    // 5: z
		{3, 0},       // 6: t
		{0.8, -2.3},  // 7: a
		{-0.2, -2.4}, // 8: b
		{0, -4.0},    // 9: c
	}, 7
}

// Figure1Labels maps the indices of Figure1Points to the paper's labels.
var Figure1Labels = []string{"u", "v", "w", "x", "y", "z", "t", "a", "b", "c"}

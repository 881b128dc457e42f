package hull2d

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	eng "parhull/internal/engine"
	"parhull/internal/engine/seqref"
)

// withOracle runs fn with Seq driven by the conflict-graph oracle loop
// instead of engine.Seq's pivot buckets.
func withOracle(fn func()) {
	saved := seqLoop
	defer func() { seqLoop = saved }()
	seqLoop = func(cfg eng.Config[Facet, int32], facets []*Facet, n int32, baseSizes []int) ([]int, error) {
		return seqref.Seq(cfg, func(f *Facet) []int32 { return f.Conf }, facets, n, baseSizes)
	}
	fn()
}

// seqTrace is everything the identity test compares of one sequential run.
type seqTrace struct {
	created                     [][2]int32 // edges, creation order
	sizes                       []int
	vtests, fallbacks, replaced int64
	err                         error
}

func traceOf(res *Result, err error) seqTrace {
	if err != nil {
		return seqTrace{err: err}
	}
	tr := seqTrace{
		sizes:     slices.Clone(res.HullSizes),
		vtests:    res.Stats.VisibilityTests,
		fallbacks: res.Stats.ExactFallbacks,
		replaced:  res.Stats.Replaced,
	}
	for _, f := range res.Created() {
		tr.created = append(tr.created, [2]int32{f.A, f.B})
	}
	return tr
}

func sameTrace(t *testing.T, label string, got, want seqTrace) {
	t.Helper()
	if (got.err == nil) != (want.err == nil) ||
		(got.err != nil && (got.err.Error() != want.err.Error() ||
			errors.Is(got.err, ErrDegenerate) != errors.Is(want.err, ErrDegenerate))) {
		t.Fatalf("%s: err = %v, want %v", label, got.err, want.err)
	}
	if !slices.Equal(got.created, want.created) {
		t.Fatalf("%s: created edge sequences differ (%d vs %d edges)", label, len(got.created), len(want.created))
	}
	if !slices.Equal(got.sizes, want.sizes) {
		t.Fatalf("%s: hull sizes differ", label)
	}
	if got.vtests != want.vtests || got.fallbacks != want.fallbacks || got.replaced != want.replaced {
		t.Fatalf("%s: vtests/fallbacks/replaced = %d/%d/%d, want %d/%d/%d", label,
			got.vtests, got.fallbacks, got.replaced, want.vtests, want.fallbacks, want.replaced)
	}
}

// TestSeqPivotBucketsMatchConflictGraph pins the pivot-bucket form of
// Algorithm 2 to the conflict-graph form it replaced on the planar kernel:
// the same created edge sequence, hull sizes, counters, and error, on
// general-position and degenerate clouds — on a fresh Reuse and, twice in a
// row, on one retained Reuse that runs Par between the Seq calls.
// Result.Created() lists the walk of the Reuse's own arena and then its pool's
// worker arenas, so the Seq calls check that Seq finds the worker arenas Par
// filled empty, which keeps its walk in creation order.
func TestSeqPivotBucketsMatchConflictGraph(t *testing.T) {
	for _, c := range seqref.Clouds(2, 2000, 2) {
		t.Run(c.Name, func(t *testing.T) {
			var want seqTrace
			withOracle(func() { want = traceOf(Seq(c.Pts, nil)) })
			sameTrace(t, "fresh", traceOf(Seq(c.Pts, nil)), want)
			ru := NewReuse()
			defer ru.Close()
			for rep := 0; rep < 2; rep++ {
				sameTrace(t, fmt.Sprintf("reuse rep %d", rep), traceOf(Seq(c.Pts, &Options{Reuse: ru})), want)
				// A degenerate cloud may fail Par; one that gets past its base
				// still fills worker arenas.
				_, _ = Par(c.Pts, &Options{Reuse: ru})
			}
		})
	}
}

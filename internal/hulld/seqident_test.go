package hulld

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	eng "parhull/internal/engine"
	"parhull/internal/engine/seqref"
	"parhull/internal/geom"
)

// withOracle runs fn with seq driven by the conflict-graph oracle loop
// instead of engine.Seq's pivot buckets.
func withOracle(fn func()) {
	saved := seqLoop
	defer func() { seqLoop = saved }()
	seqLoop = func(cfg eng.Config[Facet, []int32], facets []*Facet, n int32, baseSizes []int) ([]int, error) {
		return seqref.Seq(cfg, func(f *Facet) []int32 { return f.Conf }, facets, n, baseSizes)
	}
	fn()
}

// seqTrace is everything the identity test compares of one sequential run.
type seqTrace struct {
	created                     [][]int32 // vertex tuples, creation order
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
		tr.created = append(tr.created, slices.Clone(f.Verts))
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
	if len(got.created) != len(want.created) {
		t.Fatalf("%s: %d facets created, want %d", label, len(got.created), len(want.created))
	}
	for i := range got.created {
		if !slices.Equal(got.created[i], want.created[i]) {
			t.Fatalf("%s: created[%d] = %v, want %v", label, i, got.created[i], want.created[i])
		}
	}
	if !slices.Equal(got.sizes, want.sizes) {
		t.Fatalf("%s: hull sizes differ", label)
	}
	if got.vtests != want.vtests || got.fallbacks != want.fallbacks || got.replaced != want.replaced {
		t.Fatalf("%s: vtests/fallbacks/replaced = %d/%d/%d, want %d/%d/%d", label,
			got.vtests, got.fallbacks, got.replaced, want.vtests, want.fallbacks, want.replaced)
	}
}

// TestSeqPivotBucketsMatchConflictGraph pins the pivot-bucket form of the
// Algorithm 2 loop to the conflict-graph loop it replaced: the same created
// facet sequence, hull sizes, counters, and error, on general-position and
// degenerate clouds in d = 2..5 and lifted from 2D — on a fresh Reuse and,
// twice in a row, on one retained Reuse that runs Par between the Seq
// calls. Result.Created() lists the walk of the Reuse's own arena and then its
// pool's worker arenas, so the Seq calls check that Seq finds the worker
// arenas Par filled empty, which keeps its walk in creation order. Only the
// loop is swapped; both runs
// share seqGeom's two-slot ridge map (TestSeqGeomCrowdedRidge covers its
// third-facet case).
func TestSeqPivotBucketsMatchConflictGraph(t *testing.T) {
	check := func(t *testing.T, pts, lift []geom.Point) {
		var want seqTrace
		withOracle(func() { want = traceOf(Seq(pts, &Options{Lift: lift})) })
		sameTrace(t, "fresh", traceOf(Seq(pts, &Options{Lift: lift})), want)
		ru := NewReuse()
		defer ru.Close()
		for rep := 0; rep < 2; rep++ {
			sameTrace(t, fmt.Sprintf("reuse rep %d", rep), traceOf(Seq(pts, &Options{Lift: lift, Reuse: ru})), want)
			// A degenerate cloud may fail Par; one that gets past its base
			// still fills worker arenas.
			_, _ = Par(pts, &Options{Lift: lift, Reuse: ru})
		}
	}
	sizes := map[int]int{2: 400, 3: 300, 4: 120, 5: 60}
	for d := 2; d <= 5; d++ {
		for _, c := range seqref.Clouds(int64(d), sizes[d], d) {
			t.Run(fmt.Sprintf("d=%d/%s", d, c.Name), func(t *testing.T) { check(t, c.Pts, nil) })
		}
	}
	for _, c := range seqref.Clouds(3, 200, 2) {
		t.Run("lifted/"+c.Name, func(t *testing.T) {
			// A lifted run needs distinct sites, so the degenerate clouds run
			// deduplicated (their ties are what is left).
			var pts []geom.Point
			seen := map[[2]float64]bool{}
			for _, p := range c.Pts {
				if k := [2]float64{p[0], p[1]}; !seen[k] {
					seen[k] = true
					pts = append(pts, p)
				}
			}
			lifted, plane := liftedCloud(pts)
			check(t, lifted, plane)
		})
	}
}

// TestSeqGeomCrowdedRidge registers a third alive facet on a ridge of the
// initial simplex: Boundary must refuse with ErrDegenerate, and so must a
// construction whose loop ends with the crowded flag set. A retained
// Reuse must clear the flag for the next construction.
func TestSeqGeomCrowdedRidge(t *testing.T) {
	pts := seqref.Clouds(3, 50, 3)[0].Pts
	crowd := func(cfg eng.Config[Facet, []int32], facets []*Facet) {
		for _, f := range facets {
			cfg.Geom.Register(f)
		}
		cfg.Geom.Register(&Facet{Verts: slices.Clone(facets[0].Verts)})
	}

	ru := NewReuse()
	saved := seqLoop
	seqLoop = func(cfg eng.Config[Facet, []int32], facets []*Facet, n int32, baseSizes []int) ([]int, error) {
		crowd(cfg, facets)
		_, err := cfg.Geom.Boundary(facets[:1], 1, nil)
		if !errors.Is(err, ErrDegenerate) {
			t.Errorf("Boundary on a crowded ridge: err = %v, want ErrDegenerate", err)
		}
		return nil, nil
	}
	_, err := Seq(pts, &Options{Reuse: ru})
	seqLoop = saved
	if !errors.Is(err, ErrDegenerate) {
		t.Fatalf("construction after a crowded ridge: err = %v, want ErrDegenerate", err)
	}
	if _, err := Seq(pts, &Options{Reuse: ru}); err != nil {
		t.Fatalf("next construction on the same Reuse: %v", err)
	}
}

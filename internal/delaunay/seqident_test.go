package delaunay

import (
	"slices"
	"testing"

	eng "parhull/internal/engine"
	"parhull/internal/engine/seqref"
	"parhull/internal/geom"
)

// TestSeqPivotBucketsMatchConflictGraph pins the pivot-bucket form of
// Algorithm 2 to the conflict-graph form it replaced on the Delaunay kernel:
// the same created triangle sequence, counters, and error, on
// general-position and (deduplicated) degenerate clouds.
func TestSeqPivotBucketsMatchConflictGraph(t *testing.T) {
	type trace struct {
		created          [][3]int32
		vtests, replaced int64
		err              string
	}
	run := func(pts []geom.Point) trace {
		res, err := Seq(pts, &Options{})
		if err != nil {
			return trace{err: err.Error()}
		}
		tr := trace{vtests: res.Stats.VisibilityTests, replaced: res.Stats.Replaced}
		for _, tri := range res.Created {
			tr.created = append(tr.created, tri.Verts)
		}
		return tr
	}
	for _, c := range seqref.Clouds(3, 200, 2) {
		t.Run(c.Name, func(t *testing.T) {
			// Delaunay rejects duplicate sites up front, so the degenerate
			// clouds run deduplicated (their ties are what is left).
			var pts []geom.Point
			seen := map[[2]float64]bool{}
			for _, p := range c.Pts {
				if k := [2]float64{p[0], p[1]}; !seen[k] {
					seen[k] = true
					pts = append(pts, p)
				}
			}
			got := run(pts)
			saved := seqLoop
			seqLoop = func(cfg eng.SeqConfig[Triangle, []int32], facets []*Triangle, n int32, baseSizes []int) ([]int, error) {
				return seqref.Seq(cfg, func(t *Triangle) []int32 { return t.Conf }, facets, n, baseSizes)
			}
			want := run(pts)
			seqLoop = saved
			if got.err != want.err || got.vtests != want.vtests || got.replaced != want.replaced {
				t.Fatalf("err/vtests/replaced = %q/%d/%d, want %q/%d/%d",
					got.err, got.vtests, got.replaced, want.err, want.vtests, want.replaced)
			}
			if !slices.Equal(got.created, want.created) {
				t.Fatalf("created triangle sequences differ (%d vs %d triangles)", len(got.created), len(want.created))
			}
		})
	}
}

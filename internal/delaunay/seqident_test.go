package delaunay

import (
	"testing"

	"parhull/internal/engine/seqref"
	"parhull/internal/geom"
)

// TestSeqPivotBucketsMatchConflictGraph pins the lifted route's sequential
// loop — hulld's pivot-bucket form of Algorithm 2 — to Triangulate, the
// conflict-graph form of the same process on the Delaunay configuration
// space, on general-position and (deduplicated) degenerate clouds. The loop
// must create triangles in insertion order, create and keep exactly
// Triangulate's triangles, and count the same facets. Its in-circle tests,
// replacements and maximum depth are each exactly one fewer: the bounding
// triangle's lift is part of the given base, where Triangulate creates it as
// a root (tested against every point, depth 0) and replaces it at the first
// insertion.
func TestSeqPivotBucketsMatchConflictGraph(t *testing.T) {
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
			ref, err := Triangulate(pts)
			if err != nil {
				t.Fatalf("Triangulate: %v", err)
			}
			res, plane, err := run(pts, "seq", nil)
			if err != nil {
				t.Fatalf("lifted seq: %v", err)
			}
			// A triangle's pivot is its newest input point (hull index
			// 3 + i for point i; the bounding vertices 0-2 come first). The
			// base simplex — the bounding triangle's lift and its three
			// faces with point 0 — is point 0's.
			prev := int32(-1)
			for i, f := range res.Created() {
				if p := max(f.Verts[2], 3); p < prev {
					t.Fatalf("created[%d] = %v has pivot %d after pivot %d", i, f.Verts, p, prev)
				} else {
					prev = p
				}
			}
			sameMultiset(t, c.Name, hullCreatedSet(res, len(pts)), createdSet(ref.Created))
			sameSet(t, c.Name, hullAliveSet(res, plane), aliveSet(ref))
			got, want := res.Stats, ref.Stats
			if got.FacetsCreated != want.FacetsCreated {
				t.Fatalf("facets created %d, want %d", got.FacetsCreated, want.FacetsCreated)
			}
			if got.VisibilityTests != want.VisibilityTests-1 || got.Replaced != want.Replaced-1 ||
				got.MaxDepth != want.MaxDepth-1 {
				t.Fatalf("vtests/replaced/depth = %d/%d/%d, want one fewer than %d/%d/%d",
					got.VisibilityTests, got.Replaced, got.MaxDepth,
					want.VisibilityTests, want.Replaced, want.MaxDepth)
			}
		})
	}
}

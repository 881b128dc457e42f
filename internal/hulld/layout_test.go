package hulld

import (
	"fmt"
	"testing"
	"unsafe"
)

// TestLayoutScheduleEquivalence is the plane-storage half of the Theorem 5.5
// contract: each facet carries its hyperplane inline, folded at creation
// (DESIGN.md §4.7), and that cached plane is purely an evaluation shortcut,
// so every schedule must produce the identical facet multiset and vertex
// order with the plane read and with the exact determinant predicate alone.
// The sequential engine is the reference; each Par (full width, one worker,
// and on a retained Reuse) and Rounds schedule runs under both NoPlaneCache
// settings against it on the ball, sphere and cube clouds, so a batch
// kernel whose folded-plane evaluation diverged by even one ulp from the
// pointwise read would flip a classification and fail here.
func TestLayoutScheduleEquivalence(t *testing.T) {
	ru := NewReuse()
	defer ru.Close()
	for _, d := range []int{2, 3, 4} {
		n := 150
		if d == 4 {
			n = 60
		}
		for name, pts := range workloads(23, n, d) {
			ref, err := Seq(pts, nil)
			if err != nil {
				t.Fatalf("d=%d %s seq: %v", d, name, err)
			}
			want := ref.FacetSet()
			wantV := fmt.Sprint(ref.Vertices)
			for _, noPlane := range []bool{false, true} {
				results := map[string]*Result{}
				for sname, o := range map[string]*Options{
					"par":          {NoPlaneCache: noPlane},
					"par-1worker":  {NoPlaneCache: noPlane, Workers: 1},
					"par-on-reuse": {NoPlaneCache: noPlane, Reuse: ru},
				} {
					r, err := Par(pts, o)
					if err != nil {
						t.Fatalf("d=%d %s %s noPlane=%v: %v", d, name, sname, noPlane, err)
					}
					// A Reuse result is invalidated by the next call on it,
					// so compare before moving on.
					results[sname] = r
					if o.Reuse != nil {
						checkLayoutResult(t, fmt.Sprintf("d=%d %s %s noPlane=%v", d, name, sname, noPlane), r, want, wantV)
						delete(results, sname)
					}
				}
				rr, err := Rounds(pts, &Options{NoPlaneCache: noPlane})
				if err != nil {
					t.Fatalf("d=%d %s rounds noPlane=%v: %v", d, name, noPlane, err)
				}
				results["rounds"] = rr
				for cname, r := range results {
					checkLayoutResult(t, fmt.Sprintf("d=%d %s %s noPlane=%v", d, name, cname, noPlane), r, want, wantV)
				}
			}
		}
	}
}

func checkLayoutResult(t *testing.T, label string, r *Result, want map[string]int, wantV string) {
	t.Helper()
	if gotV := fmt.Sprint(r.Vertices); gotV != wantV {
		t.Errorf("%s: vertices %s, seq %s", label, gotV, wantV)
	}
	got := r.FacetSet()
	if len(got) != len(want) {
		t.Fatalf("%s: %d distinct facets, seq %d", label, len(got), len(want))
	}
	for k, c := range want {
		if got[k] != c {
			t.Errorf("%s: facet %x multiplicity %d, seq %d", label, k, got[k], c)
		}
	}
}

// TestFacetLayout pins the retained size of a facet on 64-bit platforms: a
// facet keeps only its vertex ids, conflict list, depth, round and liveness
// (its plane lives in the worker's plane slot only while its conflict list
// is filtered), so one facet fits a 64-byte cache line. A field added later
// regrows the per-facet cost of every build and fails here.
func TestFacetLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the layout is pinned on 64-bit platforms")
	}
	if got := unsafe.Sizeof(Facet{}); got > 64 {
		t.Fatalf("hulld.Facet is %d bytes, want at most 64", got)
	}
}

package hull2d

import (
	"testing"
	"unsafe"
)

// TestFacetLayout pins the retained size of an edge on 64-bit platforms: an
// edge keeps only its endpoints, conflict list, depth, round and liveness
// (its line lives in the worker's plane slot only while its conflict list
// is filtered), so it takes 48 bytes. A field added later regrows the
// per-edge cost of every build and fails here.
func TestFacetLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the layout is pinned on 64-bit platforms")
	}
	if got := unsafe.Sizeof(Facet{}); got > 48 {
		t.Fatalf("hull2d.Facet is %d bytes, want at most 48", got)
	}
}

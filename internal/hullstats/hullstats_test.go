package hullstats

import (
	"fmt"
	"sync"
	"testing"
)

// TestRecorderConcurrent counts visibility tests, deaths and finalized
// ridges from concurrent workers, and takes the created-facet counters from a
// plain depth tally, the way the kernels do once a construction quiesces.
func TestRecorderConcurrent(t *testing.T) {
	r := new(Recorder)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.VTests.Inc(uint64(id))
				r.Replaced(i%2 == 0)
				r.Buried(i%4 == 0)
				r.Finalized()
			}
		}(w)
	}
	wg.Wait()
	var depths Depths
	for i := 0; i < 800; i++ {
		depths.Add(int32(i % 5))
	}
	s := r.Snapshot(7, 42, depths, nil)
	if s.FacetsCreated != 800 || s.VisibilityTests != 800 {
		t.Fatalf("created=%d vtests=%d", s.FacetsCreated, s.VisibilityTests)
	}
	if s.Replaced != 400 || s.Buried != 200 || s.Finalized != 800 {
		t.Fatalf("replaced=%d buried=%d finalized=%d", s.Replaced, s.Buried, s.Finalized)
	}
	if s.Rounds != 7 || s.HullSize != 42 || s.MaxDepth != 4 {
		t.Fatalf("rounds=%d hull=%d depth=%d", s.Rounds, s.HullSize, s.MaxDepth)
	}
	if got := fmt.Sprint(s.DepthHist); got != "[160 160 160 160 160]" {
		t.Fatalf("hist %s", got)
	}
}

// TestZeroRecorderCounts pins that the zero Recorder is ready and counts
// visibility tests, and that a sparse tally gives zero bins below its depth.
func TestZeroRecorderCounts(t *testing.T) {
	var r Recorder
	r.VTests.Inc(1)
	var depths Depths
	depths.Add(3)
	s := r.Snapshot(0, 0, depths, nil)
	if s.VisibilityTests != 1 || s.FacetsCreated != 1 || s.MaxDepth != 3 {
		t.Fatalf("%+v", s)
	}
	if len(s.DepthHist) != 4 || s.DepthHist[3] != 1 {
		t.Fatalf("hist: %v", s.DepthHist)
	}
}

func TestRecorderFirstKillSemantics(t *testing.T) {
	var r Recorder
	r.Replaced(false) // second kill: not counted
	r.Buried(false)
	s := r.Snapshot(0, 0, nil, nil)
	if s.Replaced != 0 || s.Buried != 0 {
		t.Fatalf("%+v", s)
	}
	if s.FacetsCreated != 0 || s.MaxDepth != 0 || fmt.Sprint(s.DepthHist) != "[0]" {
		t.Fatalf("empty tally: created=%d depth=%d hist=%v", s.FacetsCreated, s.MaxDepth, s.DepthHist)
	}
}

// TestDepthsResetAndSnapshotCopy pins the retained-tally contract: Reset
// keeps the storage, a shallower second tally overwrites the stale bins and
// reports its own maximum, Snapshot hands out a copy that a later tally
// does not change, and a Snapshot given an earlier DepthHist copies into
// its storage.
func TestDepthsResetAndSnapshotCopy(t *testing.T) {
	var r Recorder
	var depths Depths
	for _, d := range []int32{0, 5, 5, 2} {
		depths.Add(d)
	}
	first := r.Snapshot(0, 0, depths, nil)
	depths.Reset()
	if len(depths) != 0 || cap(depths) < 6 {
		t.Fatalf("Reset: len %d cap %d, want 0 and the old storage", len(depths), cap(depths))
	}
	depths.Add(1)
	depths.Add(1)
	second := r.Snapshot(0, 0, depths, nil)
	if got := fmt.Sprint(first.DepthHist); got != "[1 0 1 0 0 2]" || first.MaxDepth != 5 || first.FacetsCreated != 4 {
		t.Fatalf("first: hist %s depth %d created %d", got, first.MaxDepth, first.FacetsCreated)
	}
	if got := fmt.Sprint(second.DepthHist); got != "[0 2]" || second.MaxDepth != 1 || second.FacetsCreated != 2 {
		t.Fatalf("second: hist %s depth %d created %d", got, second.MaxDepth, second.FacetsCreated)
	}
	third := r.Snapshot(0, 0, depths, first.DepthHist)
	if got := fmt.Sprint(third.DepthHist); got != "[0 2]" || &third.DepthHist[0] != &first.DepthHist[0] {
		t.Fatalf("third: hist %s, or not in the given storage", got)
	}
}

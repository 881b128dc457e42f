package hull2d

import (
	"runtime"
	"testing"

	"parhull/internal/pointgen"
)

func TestTraceMachinery(t *testing.T) {
	pts := pointgen.OnCircle(pointgen.NewRNG(20), 40)
	res, tr, err := Rounds(pts, &Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if tr == nil || len(tr.Events) == 0 {
		t.Fatal("no trace recorded")
	}
	total := 0
	for r := 1; r <= res.Stats.Rounds; r++ {
		evs := tr.ByRound(r)
		total += len(evs)
		// Canonical order: kinds ascending, then edges.
		for i := 1; i < len(evs); i++ {
			a, b := evs[i-1], evs[i]
			if a.Kind > b.Kind {
				t.Fatalf("round %d: events not sorted by kind", r)
			}
			if a.Kind == b.Kind && less2(b.A, a.A) {
				t.Fatalf("round %d: events not sorted by edge", r)
			}
		}
	}
	if total != len(tr.Events) {
		t.Fatalf("ByRound covered %d of %d events", total, len(tr.Events))
	}
	f := &Facet{A: 3, B: 7}
	if f.String() != "3->7" {
		t.Fatalf("Facet.String: %q", f.String())
	}
	// RoundWidths must sum to the number of executed tasks and start with
	// the initial corner count.
	if len(res.Stats.RoundWidths) != res.Stats.Rounds {
		t.Fatalf("widths %d, rounds %d", len(res.Stats.RoundWidths), res.Stats.Rounds)
	}
	if res.Stats.RoundWidths[0] != 3 {
		t.Fatalf("first round width %d, want 3 (initial triangle corners)", res.Stats.RoundWidths[0])
	}
}

// TestParallelFilterPathEquivalence forces the chunked parallel conflict
// filter inside the real engine (tiny grain, multiple workers) and requires
// results identical to the serial path.
func TestParallelFilterPathEquivalence(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	if old < 4 {
		runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(old)
	}
	pts := pointgen.OnCircle(pointgen.NewRNG(21), 3000)
	serial, err := Par(pts, &Options{FilterGrain: 1 << 62})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Par(pts, &Options{FilterGrain: 64})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Stats.VisibilityTests != par.Stats.VisibilityTests ||
		serial.Stats.FacetsCreated != par.Stats.FacetsCreated ||
		serial.Stats.MaxDepth != par.Stats.MaxDepth ||
		serial.Stats.HullSize != par.Stats.HullSize {
		t.Fatalf("parallel filter changed results: %+v vs %+v", serial.Stats, par.Stats)
	}
	se, pe := serial.EdgeSet(), par.EdgeSet()
	for k, c := range se {
		if pe[k] != c {
			t.Fatalf("edge multiset differs at %v", k)
		}
	}
}

package hull2d

import (
	"fmt"
	"runtime"
	"testing"

	"parhull/internal/conmap"
	"parhull/internal/pointgen"
)

// TestReuseKeepsRidgeIDs checks that an engine a Reuse owns keeps the
// identity array behind its conmap keys: builds with a CAS map on one Reuse,
// over the same cloud and then over a smaller one, share one backing array,
// which stays the identity and yields the edges Seq creates.
func TestReuseKeepsRidgeIDs(t *testing.T) {
	ru := NewReuse()
	defer ru.Close()
	pts := pointgen.OnCircle(pointgen.NewRNG(22), 2000)
	var backing *int32
	for i, n := range []int{len(pts), len(pts), len(pts) / 2} {
		label := fmt.Sprintf("build %d (n=%d)", i+1, n)
		ref, err := Seq(pts[:n], nil)
		if err != nil {
			t.Fatalf("%s seq: %v", label, err)
		}
		r, err := Par(pts[:n], &Options{Reuse: ru, Map: conmap.NewCASMap[*Facet](8 * n)})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want, got := ref.EdgeSet(), r.EdgeSet()
		if len(got) != len(want) {
			t.Fatalf("%s: %d distinct edges, seq %d", label, len(got), len(want))
		}
		for k, c := range want {
			if got[k] != c {
				t.Fatalf("%s: edge %v multiplicity %d, seq %d", label, k, got[k], c)
			}
		}
		ids := ru.e.ridgeIDs
		for v := range n {
			if ids[v] != int32(v) {
				t.Fatalf("%s: ridge id %d holds %d", label, v, ids[v])
			}
		}
		if i == 0 {
			backing = &ids[0]
		} else if &ids[0] != backing {
			t.Fatalf("%s: the ridge-id array was remade", label)
		}
	}
}

// TestReuseRoundsAllocations pins the steady state of Rounds on a retained
// Reuse, whose vertex-slot ridge table is retained too: once warm, a
// construction allocates a few dozen objects (the round widths, the seed
// closures, the result's bookkeeping), none per round and none per step, as
// Par on the same state. It runs at GOMAXPROCS = 1, like the reuse gate of
// cmd/hullbench, so that long conflict lists do not split into parallel
// filter pieces. The bound leaves room for the race detector, under which
// sync.Pool drops some of the conflict scratch it is handed back.
func TestReuseRoundsAllocations(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	pts := pointgen.OnCircle(pointgen.NewRNG(23), 20000)
	ru := NewReuse()
	defer ru.Close()
	opt := &Options{Reuse: ru}
	var rounds int
	build := func() {
		r, _, err := Rounds(pts, opt)
		if err != nil {
			t.Fatal(err)
		}
		rounds = r.Stats.Rounds
	}
	build()
	allocs := testing.AllocsPerRun(3, build)
	t.Logf("warm Rounds: %.0f allocations over %d rounds", allocs, rounds)
	if allocs > 60 {
		t.Fatalf("warm Rounds allocated %.0f objects over %d rounds, want at most 60", allocs, rounds)
	}
}

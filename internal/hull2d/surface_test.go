package hull2d

import (
	"fmt"
	"testing"

	"parhull/internal/conmap"
	eng "parhull/internal/engine"
	"parhull/internal/leakcheck"
	"parhull/internal/pointgen"
)

// TestBenchTraceCallSurface makes the calls bench/trace.go makes of this
// package. bench/ is a module of its own, which `go test ./...` does not
// compile, so without this test a change to these signatures or their
// meaning would fail only its vet. The calls: NewReuse and Close; Par on
// that Reuse at two widths, with a sharded ridge map sized by
// engine.DefaultMapCapacity (at d = 0, as bench/trace.go sizes it) and
// Reset between builds; a one-shot Rounds; and SeqCtx with no context,
// injector or ablation. Each must create Seq's edge multiset, with its
// vertices and FacetsCreated, and hand out the alive edges of its CCW
// cycle.
func TestBenchTraceCallSurface(t *testing.T) {
	leakcheck.Check(t)
	pts := pointgen.OnCircle(pointgen.NewRNG(19), 3000)
	ref, err := Seq(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.EdgeSet()
	check := func(label string, r *Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if got, want := fmt.Sprint(r.Vertices), fmt.Sprint(ref.Vertices); got != want {
			t.Fatalf("%s: vertices %s, seq %s", label, got, want)
		}
		if r.Stats.FacetsCreated != ref.Stats.FacetsCreated {
			t.Fatalf("%s: FacetsCreated %d, seq %d", label, r.Stats.FacetsCreated, ref.Stats.FacetsCreated)
		}
		got := r.EdgeSet()
		if len(got) != len(want) {
			t.Fatalf("%s: %d distinct edges, seq %d", label, len(got), len(want))
		}
		for e, c := range want {
			if got[e] != c {
				t.Fatalf("%s: edge %v created %d times, seq %d", label, e, got[e], c)
			}
		}
		for i, f := range r.Facets {
			if !f.Alive() || f.A != r.Vertices[i] || f.B != r.Vertices[(i+1)%len(r.Vertices)] {
				t.Fatalf("%s: facet %d is %v (alive %v), not the cycle's edge", label, i, f, f.Alive())
			}
		}
	}
	ru := NewReuse()
	defer ru.Close()
	var m *conmap.ShardedMap[*Facet]
	for _, w := range []int{1, 2, 2} {
		if m == nil {
			m = conmap.NewShardedMap[*Facet](eng.DefaultMapCapacity(len(pts), 0))
		} else {
			m.Reset()
		}
		r, err := Par(pts, &Options{Map: m, Workers: w, Reuse: ru})
		check(fmt.Sprintf("Par workers=%d on a reuse", w), r, err)
	}
	r, _, err := Rounds(pts, nil)
	check("Rounds", r, err)
	r, err = SeqCtx(nil, nil, pts, false)
	check("SeqCtx", r, err)
}

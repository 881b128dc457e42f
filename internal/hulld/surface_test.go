package hulld

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
// engine.DefaultMapCapacity and Reset between builds; a one-shot Rounds; and
// SeqCtx with no context, injector or ablation. Each must create Seq's facet
// multiset, with its vertices and FacetsCreated, and hand out alive Facets
// with their d Verts.
func TestBenchTraceCallSurface(t *testing.T) {
	leakcheck.Check(t)
	const d = 3
	pts := pointgen.UniformBall(pointgen.NewRNG(9), 3000, d)
	ref, err := Seq(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.FacetSet()
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
		got := r.FacetSet()
		if len(got) != len(want) {
			t.Fatalf("%s: %d distinct facets, seq %d", label, len(got), len(want))
		}
		for k, c := range want {
			if got[k] != c {
				t.Fatalf("%s: facet multiplicity %d, seq %d", label, got[k], c)
			}
		}
		if len(r.Facets) != r.Stats.HullSize {
			t.Fatalf("%s: %d facets, HullSize %d", label, len(r.Facets), r.Stats.HullSize)
		}
		for _, f := range r.Facets {
			if len(f.Verts) != d || !f.Alive() {
				t.Fatalf("%s: facet %v (alive %v) is not an alive %d-vertex facet", label, f.Verts, f.Alive(), d)
			}
		}
	}
	ru := NewReuse()
	defer ru.Close()
	var m *conmap.ShardedMap[*Facet]
	for _, w := range []int{1, 2, 2} {
		if m == nil {
			m = conmap.NewShardedMap[*Facet](eng.DefaultMapCapacity(len(pts), d))
		} else {
			m.Reset()
		}
		r, err := Par(pts, &Options{Map: m, Workers: w, Reuse: ru})
		check(fmt.Sprintf("Par workers=%d on a reuse", w), r, err)
	}
	r, err := Rounds(pts, nil)
	check("Rounds", r, err)
	r, err = SeqCtx(nil, nil, pts, false)
	check("SeqCtx", r, err)
}

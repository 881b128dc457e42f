package hulld

import (
	"fmt"
	"testing"

	"parhull/internal/pointgen"
)

// closureOracle is the map-based ridge count checkClosed replaced: it counts
// every ridge of the alive facets in a Go map and returns, for each ridge
// not shared by exactly two of them, the error checkClosed reports for it.
func closureOracle(facets []*Facet) map[string]bool {
	count := map[ridgeMapKey]int{}
	ridge := map[ridgeMapKey][]int32{}
	for _, f := range facets {
		for omit := range f.Verts {
			k := ridgeKeyOmit(f.Verts, omit)
			count[k]++
			if ridge[k] == nil {
				r := make([]int32, 0, len(f.Verts)-1)
				for q, v := range f.Verts {
					if q != omit {
						r = append(r, v)
					}
				}
				ridge[k] = r
			}
		}
	}
	bad := map[string]bool{}
	for k, c := range count {
		if c != 2 {
			bad[fmt.Sprintf("hulld: ridge %v shared by %d alive facets, want 2", ridge[k], c)] = true
		}
	}
	return bad
}

// TestCheckClosedMatchesOracle runs the closure check and the map-based
// oracle on every engine's output for d = 2..5, and on two broken facet
// sets derived from it: one facet dropped (its ridges become open, shared
// once) and one facet listed twice (its ridges are shared three times). The
// check must accept exactly what the oracle accepts and report one of the
// ridges the oracle flags, with its count.
func TestCheckClosedMatchesOracle(t *testing.T) {
	for d := 2; d <= 5; d++ {
		n := map[int]int{2: 300, 3: 300, 4: 120, 5: 60}[d]
		pts := pointgen.OnSphere(pointgen.NewRNG(int64(10+d)), n, d)
		engines := map[string]func() (*Result, error){
			"seq":    func() (*Result, error) { return Seq(pts, nil) },
			"par":    func() (*Result, error) { return Par(pts, nil) },
			"rounds": func() (*Result, error) { return Rounds(pts, nil) },
		}
		for name, run := range engines {
			res, err := run()
			if err != nil {
				t.Fatalf("d=%d %s: %v", d, name, err)
			}
			alive := res.Facets
			dup := append(append([]*Facet(nil), alive...), alive[len(alive)/2])
			for _, tc := range []struct {
				kind   string
				facets []*Facet
				closed bool
			}{
				{"hull", alive, true},
				{"dropped facet", alive[1:], false},
				{"duplicated facet", dup, false},
			} {
				bad := closureOracle(tc.facets)
				err := checkClosed(tc.facets, len(pts), d, new(closure))
				switch {
				case (len(bad) == 0) != tc.closed:
					t.Fatalf("d=%d %s %s: oracle flags %d ridges", d, name, tc.kind, len(bad))
				case tc.closed && err != nil:
					t.Fatalf("d=%d %s %s: %v", d, name, tc.kind, err)
				case !tc.closed && err == nil:
					t.Fatalf("d=%d %s %s: accepted, oracle flags %d ridges", d, name, tc.kind, len(bad))
				case !tc.closed && !bad[err.Error()]:
					t.Fatalf("d=%d %s %s: reported %q, not a ridge the oracle flags", d, name, tc.kind, err)
				}
			}
		}
	}
}

package main

import (
	"fmt"

	"parhull"
	"parhull/internal/hull2d"
	"parhull/internal/hulld"
	"parhull/internal/stats"
)

// expWork — E4: Algorithm 3 creates the identical facet multiset and runs
// the identical number of plane-side tests as Algorithm 2 on the same
// insertion order.
func expWork() {
	w := table()
	fmt.Fprintln(w, "d\tdist\tn\tvtests(seq)\tvtests(par)\tequal\tfacets(seq)\tfacets(par)\tsame set")
	for _, cfg := range []struct {
		d    int
		dist string
		n    int
	}{
		{2, "ball", 50000}, {2, "sphere", 50000},
		{3, "ball", 20000}, {3, "sphere", 20000},
	} {
		n := sz(cfg.n)
		pts := workload(cfg.dist, int64(cfg.n), n, cfg.d)
		var vseq, vpar, fseq, fpar int64
		same := true
		if cfg.d == 2 {
			s, err := hull2d.Seq(pts, nil)
			if err != nil {
				fmt.Println("error:", err)
				return
			}
			p, err := hull2d.Par(pts, nil)
			if err != nil {
				fmt.Println("error:", err)
				return
			}
			vseq, vpar = s.Stats.VisibilityTests, p.Stats.VisibilityTests
			fseq, fpar = s.Stats.FacetsCreated, p.Stats.FacetsCreated
			se, pe := s.EdgeSet(), p.EdgeSet()
			same = len(se) == len(pe)
			for k, c := range se {
				if pe[k] != c {
					same = false
				}
			}
		} else {
			s, err := hulld.Seq(pts, nil)
			if err != nil {
				fmt.Println("error:", err)
				return
			}
			p, err := hulld.Par(pts, nil)
			if err != nil {
				fmt.Println("error:", err)
				return
			}
			vseq, vpar = s.Stats.VisibilityTests, p.Stats.VisibilityTests
			fseq, fpar = s.Stats.FacetsCreated, p.Stats.FacetsCreated
			se, pe := s.FacetSet(), p.FacetSet()
			same = len(se) == len(pe)
			for k, c := range se {
				if pe[k] != c {
					same = false
				}
			}
		}
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%v\t%d\t%d\t%v\n",
			cfg.d, cfg.dist, n, vseq, vpar, vseq == vpar, fseq, fpar, same)
	}
	w.Flush()
	fmt.Println("paper (Sec 5.2): \"exactly the same set of plane-side tests ... exactly the same facets\".")
}

// expConflicts — E5: measured total conflict size against the Theorem 3.1
// bound n*g^2*sum E[|T_i|]/i^2, with |T_i| measured from the run itself.
func expConflicts() {
	w := table()
	fmt.Fprintln(w, "d\tdist\tn\ttotal conflicts\tThm 3.1 bound\tratio")
	for _, cfg := range []struct {
		d    int
		dist string
		n    int
	}{
		{2, "ball", 20000}, {2, "sphere", 20000},
		{3, "ball", 10000}, {3, "sphere", 10000},
	} {
		n := sz(cfg.n)
		pts := workload(cfg.dist, int64(3*cfg.n+cfg.d), n, cfg.d)
		var total int64
		var sizes []float64
		if cfg.d == 2 {
			res, err := hull2d.Seq(pts, nil)
			if err != nil {
				fmt.Println("error:", err)
				return
			}
			for _, f := range res.Created() {
				total += int64(len(f.Conf))
			}
			for _, h := range res.HullSizes {
				sizes = append(sizes, float64(h))
			}
		} else {
			res, err := hulld.Seq(pts, nil)
			if err != nil {
				fmt.Println("error:", err)
				return
			}
			for _, f := range res.Created() {
				total += int64(len(f.Conf))
			}
			for _, h := range res.HullSizes {
				sizes = append(sizes, float64(h))
			}
		}
		bound := stats.Theorem31Bound(cfg.d, sizes)
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%.0f\t%.3f\n",
			cfg.d, cfg.dist, n, total, bound, float64(total)/bound)
	}
	w.Flush()
	fmt.Println("paper: E[total conflicts] <= n*g^2*sum E[|T_i|]/i^2 (Theorem 3.1); ratio must be < 1.")
}

// expFigure1 — E6: the Figure 1 walkthrough.
func expFigure1() {
	pts, base := parhull.Figure1Points()
	res, rounds, err := parhull.Hull2DTrace(pts, base)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	edge := func(e [2]int) string {
		return parhull.Figure1Labels[e[0]] + "-" + parhull.Figure1Labels[e[1]]
	}
	for _, r := range rounds {
		fmt.Printf("round %d:", r.Round)
		for _, ev := range r.Events {
			switch ev.Kind {
			case parhull.TraceCreated:
				fmt.Printf("  +%s(-%s)", edge(ev.A), edge(ev.B))
			case parhull.TraceBuried:
				fmt.Printf("  bury(%s,%s)", edge(ev.A), edge(ev.B))
			default:
				fmt.Printf("  final(%s,%s)", edge(ev.A), edge(ev.B))
			}
		}
		fmt.Println()
	}
	fmt.Print("final hull:")
	for _, v := range res.Vertices {
		fmt.Printf(" %s", parhull.Figure1Labels[v])
	}
	fmt.Printf("  (%d rounds)\n", res.Stats.Rounds)
	fmt.Println("paper (Sec 5.3): v-c,w-b,x-a,a-z in round 1; b-a,c-z in round 2; buries and finals in round 3.")
}

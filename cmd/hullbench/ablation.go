package main

import (
	"fmt"
	"time"

	"parhull/internal/core"
	"parhull/internal/delaunay"
	"parhull/internal/geom"
	"parhull/internal/hull2d"
	"parhull/internal/hulld"
	"parhull/internal/pointgen"
	"parhull/internal/stats"
	"parhull/internal/trapezoid"
)

// expFilter — A1 (ablation): parallel vs serial chunking of conflict-list
// filtering (the paper's span bound needs the big early-round lists filtered
// in parallel — approximate compaction in the CRCW analysis). Outputs and
// test counts are identical by construction on every row.
func expFilter() {
	n := sz(400000)
	pts := pointgen.OnCircle(pointgen.NewRNG(12), n)
	w := table()
	fmt.Fprintln(w, "filter\ttime\tvtests\tfacets")
	for _, cfg := range []struct {
		name  string
		grain int
	}{
		{"parallel (default)", 0},
		{"serial (grain=inf)", 1 << 62},
	} {
		start := time.Now()
		res, err := hull2d.Par(pts, &hull2d.Options{FilterGrain: cfg.grain})
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Fprintf(w, "%s\t%v\t%d\t%d\n", cfg.name,
			time.Since(start).Round(time.Microsecond),
			res.Stats.VisibilityTests, res.Stats.FacetsCreated)
	}
	w.Flush()
	fmt.Println("identical counts confirm the ablation only reshapes the schedule, not the work.")
}

// expPlane — A2 (ablation): cached facet hyperplanes vs exact determinants
// on the visibility hot path. With the cache on, each plane-side test is a
// strided dot product against the facet's precomputed (normal, offset,
// error bound); only uncertifiable tests fall back to the exact predicate,
// so facet sets and test counts are identical by construction (asserted by
// the planecache tests) and the table reports the hit/fallback split.
func expPlane() {
	w := table()
	fmt.Fprintln(w, "input\tplane cache\ttime\tvtests\tcache hits\texact fallbacks\tfacets")
	run2d := func(name string, pts []geom.Point, noPlane bool) {
		start := time.Now()
		res, err := hull2d.Par(pts, &hull2d.Options{NoPlaneCache: noPlane})
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Fprintf(w, "%s\t%v\t%v\t%d\t%d\t%d\t%d\n", name, !noPlane,
			time.Since(start).Round(time.Microsecond), res.Stats.VisibilityTests,
			res.Stats.PlaneCacheHits, res.Stats.ExactFallbacks, res.Stats.FacetsCreated)
	}
	run3d := func(name string, pts []geom.Point, noPlane bool) {
		start := time.Now()
		res, err := hulld.Par(pts, &hulld.Options{NoPlaneCache: noPlane})
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Fprintf(w, "%s\t%v\t%v\t%d\t%d\t%d\t%d\n", name, !noPlane,
			time.Since(start).Round(time.Microsecond), res.Stats.VisibilityTests,
			res.Stats.PlaneCacheHits, res.Stats.ExactFallbacks, res.Stats.FacetsCreated)
	}
	circle := pointgen.OnCircle(pointgen.NewRNG(13), sz(200000))
	sphere := pointgen.OnSphere(pointgen.NewRNG(14), sz(20000), 3)
	for _, noPlane := range []bool{false, true} {
		run2d("2D circle", circle, noPlane)
	}
	for _, noPlane := range []bool{false, true} {
		run3d("3D sphere", sphere, noPlane)
	}
	w.Flush()
	fmt.Println("equal vtests/facets across rows: the cache only changes how each test is decided.")
}

// expDelaunay — extension: the same shallow-dependence phenomenon for 2D
// Delaunay triangulation (the prior work [17, 18] the paper builds on).
func expDelaunay() {
	w := table()
	fmt.Fprintln(w, "n\ttriangles\tdepth\tdepth/H_n")
	for _, n0 := range []int{1000, 10000, 50000} {
		n := sz(n0)
		rng := pointgen.NewRNG(int64(90 + n0))
		pts := pointgen.Shuffled(rng, pointgen.UniformBall(rng, n, 2))
		res, err := delaunay.Triangulate(pts)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%.2f\n", n, len(res.Triangles),
			res.Stats.MaxDepth, float64(res.Stats.MaxDepth)/stats.Harmonic(n))
	}
	w.Flush()
	fmt.Println("prior work [17,18]: 2D Delaunay has O(log n) dependence depth; same shape here.")
}

// expTrapezoid — E13: the Section 4 counterexample. Trapezoidal
// decomposition does NOT have constant support: the cell below a long
// segment spanning k "teeth" needs a support set of size >= k.
func expTrapezoid() {
	w := table()
	fmt.Fprintln(w, "teeth k\tobjects\tconfigs\tsupport lower bound\tminimal support found")
	for _, k := range []int{3, 4, 5, 6} {
		segs, box := combFamily(k)
		s, err := trapezoid.NewSpace(segs, box)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		y := make([]int, 0, k+1)
		for i := 0; i <= k; i++ {
			y = append(y, i)
		}
		act := core.Active(s, y)
		pi := -1
		for _, c := range act {
			xl, xr, yb, yt := s.CellRect(c)
			if yb == box.YB && yt == 4 && xl == 1 && xr == box.XR-1 {
				pi = c
			}
		}
		if pi == -1 {
			fmt.Println("error: cell below L not active")
			return
		}
		prev := core.Active(s, y[:k])
		lb := core.SupportLowerBound(s, pi, k, prev)
		found := "-"
		if phi, ok := core.FindSupport(s, pi, k, prev); ok {
			found = fmt.Sprint(len(phi))
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\n", k, s.NumObjects(), s.NumConfigs(), lb, found)
	}
	w.Flush()
	fmt.Println("paper (Sec 4): \"adding a line segment can combine Omega(n) trapezoids into one\";")
	fmt.Println("support grows with k, so Theorem 4.2 does not apply — the framework's boundary.")
}

// combFamily builds k teeth, one long segment beneath them, and one witness
// under each tooth (the witnesses are universe-only objects that force the
// support to cover every column).
func combFamily(k int) ([]trapezoid.Segment, trapezoid.Box) {
	w := float64(10*k + 10)
	box := trapezoid.Box{XL: 0, XR: w, YB: 0, YT: 10}
	var segs []trapezoid.Segment
	for i := 0; i < k; i++ {
		segs = append(segs, trapezoid.Segment{Y: 8 + 0.01*float64(i), XL: float64(10*i) + 2, XR: float64(10*i) + 8})
	}
	segs = append(segs, trapezoid.Segment{Y: 4, XL: 1, XR: w - 1})
	for i := 0; i < k; i++ {
		segs = append(segs, trapezoid.Segment{Y: 2 + 0.01*float64(i), XL: float64(10*i) + 4, XR: float64(10*i) + 6})
	}
	return segs, box
}

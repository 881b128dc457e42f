package main

import (
	"context"
	"fmt"
	"math"

	"parhull"
	"parhull/internal/circles"
	"parhull/internal/core"
	"parhull/internal/corner"
	"parhull/internal/engine"
	"parhull/internal/geom"
	"parhull/internal/halfspace"
	"parhull/internal/hulld"
	"parhull/internal/pointgen"
	"parhull/internal/stats"
)

// expSupport — E7: brute-force verification that the hull configuration
// space has 2-support (Theorem 5.1).
func expSupport() {
	w := table()
	fmt.Fprintln(w, "d\tn\tinstances\t2-support verified\tmax support used")
	for _, d := range []int{2, 3} {
		n := 8 + d
		verified := 0
		maxSup := 0
		const instances = 3
		for s := 0; s < instances; s++ {
			pts := pointgen.OnSphere(pointgen.NewRNG(int64(100+10*d+s)), n, d)
			sp := hulld.NewSpace(pts)
			y := make([]int, n)
			for i := range y {
				y[i] = i
			}
			if err := core.VerifySupport(sp, y); err != nil {
				fmt.Println("violation:", err)
				continue
			}
			verified++
			g, err := core.Simulate(sp, y)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			if k := core.MaxSupportUsed(g); k > maxSup {
				maxSup = k
			}
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%d/%d\t%d\n", d, n, instances, verified, instances, maxSup)
	}
	w.Flush()
	fmt.Println("paper: convex hull has 2-support with support sets = facet pairs sharing a ridge (Thm 5.1).")
}

// expCorner — E8: the corner configuration space on degenerate 3D inputs.
func expCorner() {
	// Lemma 6.1: active configurations = hull corners.
	w := table()
	fmt.Fprintln(w, "input\tpoints\t|T(Y)|\texpected\treconstructed skeleton")
	for _, k := range []int{2, 3} {
		pts := pointgen.Grid3D(k)
		sp, err := corner.NewSpace(pts)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		y := make([]int, len(pts))
		for i := range y {
			y[i] = i
		}
		act := core.Active(sp, y)
		faces, err := corner.Faces(sp, act)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		sk := corner.SkeletonOf(faces)
		fmt.Fprintf(w, "grid %dx%dx%d\t%d\t%d\t24 (cube corners)\tV=%d E=%d F=%d\n",
			k, k, k, len(pts), len(act), sk.V, sk.E, sk.F)
	}
	w.Flush()

	// The generic rounds engine (engine.SpaceRounds) vs the brute-force
	// enumeration: same final active set, at a fraction of the conflict
	// tests, plus the recursion depth the simulator cannot report cheaply.
	fmt.Println()
	w = table()
	fmt.Fprintln(w, "input\tpoints\t|T(Y)| engine\t|T(Y)| core\tagree\tcreated\trounds")
	for _, k := range []int{2, 3} {
		pts := pointgen.Grid3D(k)
		if k == 2 {
			pts = append(pts, geom.Point{0.5, 0.5, 0}, geom.Point{0.5, 0, 0.5}, geom.Point{0, 0.5, 0.5})
		}
		sp, err := corner.NewSpace(pts)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		y := make([]int, len(pts))
		for i := range y {
			y[i] = i
		}
		res, err := engine.SpaceRounds(context.Background(), nil, sp, y)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		act := core.Active(sp, y)
		agree := len(res.Alive) == len(act)
		for i := 0; agree && i < len(act); i++ {
			agree = res.Alive[i] == act[i]
		}
		fmt.Fprintf(w, "grid %dx%dx%d%s\t%d\t%d\t%d\t%v\t%d\t%d\n",
			k, k, k, map[bool]string{true: "+extras", false: ""}[k == 2],
			len(pts), len(res.Alive), len(act), agree, res.Created, res.Rounds)
	}
	w.Flush()

	// Lemma 6.2 + depth: incremental simulation on a degenerate input.
	pts := pointgen.Grid3D(2)
	pts = append(pts, geom.Point{0.5, 0.5, 0}, geom.Point{0.5, 0, 0.5}, geom.Point{0, 0.5, 0.5})
	sp, err := corner.NewSpace(pts)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	rng := pointgen.NewRNG(77)
	var depths []float64
	maxSup := 0
	for s := 0; s < *seeds; s++ {
		var order []int
		for {
			order = rng.Perm(len(pts))
			if geom.Orient3D(pts[order[0]], pts[order[1]], pts[order[2]], pts[order[3]]) != 0 {
				break
			}
		}
		g, err := core.Simulate(sp, order)
		if err != nil {
			fmt.Println("simulate:", err)
			return
		}
		depths = append(depths, float64(g.MaxDepth))
		if k := core.MaxSupportUsed(g); k > maxSup {
			maxSup = k
		}
	}
	sum := stats.Summarize(depths)
	bound := stats.Theorem42MinSigma(3, 4) * stats.Harmonic(len(pts))
	fmt.Printf("degenerate run (%d points, cube + coplanar extras): depth mean %.1f max %.0f, support <= %d, Thm 4.2 line %.0f\n",
		len(pts), sum.Mean, sum.Max, maxSup, bound)
	fmt.Println("paper: corner space has 4-support (Lemma 6.2), actives = hull corners (Lemma 6.1).")
}

// expHalfspace — E9a: half-space intersection depth, direct space (small)
// and dual hull (large).
func expHalfspace() {
	// Direct space at small n.
	normals := append(halfspace.BoundingSimplex(2), genNormals(51, sz(14)-3, 2)...)
	sp, err := halfspace.NewSpace(normals)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	order := []int{0, 1, 2}
	for _, i := range pointgen.NewRNG(52).Perm(len(normals) - 3) {
		order = append(order, i+3)
	}
	g, err := core.Simulate(sp, order)
	if err != nil {
		fmt.Println("simulate:", err)
		return
	}
	fmt.Printf("direct space (d=2, n=%d): depth %d, max support %d (paper: 2-support)\n",
		len(normals), g.MaxDepth, core.MaxSupportUsed(g))

	// Duality route at larger n: the dual hull's depth is the process depth.
	w := table()
	fmt.Fprintln(w, "d\tn\tvertices\tdepth\tdepth/ln n")
	for _, cfg := range []struct{ d, n int }{{2, 10000}, {3, 10000}} {
		n := sz(cfg.n)
		nm := genNormals(int64(60+cfg.d), n, cfg.d)
		res, err := parhull.HalfspaceIntersection(nm, &parhull.Options{PreHull: parhull.PreHullOff})
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%.2f\n", cfg.d, n, len(res.Vertices),
			res.Stats.MaxDepth, float64(res.Stats.MaxDepth)/math.Log(float64(n)))
	}
	w.Flush()
	fmt.Println("paper: same O(log n) dependence depth as convex hull, by duality (Section 7).")
}

func genNormals(seed int64, n, d int) []geom.Point {
	rng := pointgen.NewRNG(seed)
	normals := pointgen.OnSphere(rng, n, d)
	for _, a := range normals {
		s := 0.8 + 0.4*rng.Float64()
		for i := range a {
			a[i] *= s
		}
	}
	return normals
}

// expCircles — E9b: unit-circle intersection depth via the arc space.
func expCircles() {
	w := table()
	fmt.Fprintln(w, "n circles\t|T| (arcs)\tdepth\tmax support")
	for _, n0 := range []int{8, 12, 16} {
		n := n0
		rng := pointgen.NewRNG(int64(70 + n))
		centers := make([]geom.Point, n)
		for i := range centers {
			a := 2 * math.Pi * rng.Float64()
			r := 0.4 * math.Sqrt(rng.Float64())
			centers[i] = geom.Point{r * math.Cos(a), r * math.Sin(a)}
		}
		sp, err := circles.NewSpace(centers)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		y := make([]int, n)
		for i := range y {
			y[i] = i
		}
		act := core.Active(sp, y)
		g, err := core.Simulate(sp, pointgen.NewRNG(int64(71+n)).Perm(n))
		if err != nil {
			fmt.Println("simulate:", err)
			return
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\n", n, len(act), g.MaxDepth, core.MaxSupportUsed(g))
	}
	w.Flush()
	fmt.Println("paper: circle intersection has 2-support and multiplicity <= 3 (Section 7).")
}

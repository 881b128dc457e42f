// Package seqref keeps the conflict-graph form of the sequential Algorithm 2
// loop as a test oracle for engine.Seq. engine.Seq finds each visible set
// C^-1(v_i) through pivot buckets; this loop finds it the textbook way, by
// filing every facet under every point of its conflict list (the bipartite
// Clarkson–Shor graph) and reading point i's entry. The kernel tests run
// both loops over the same kernel and geometry and require identical facet
// sequences, hull sizes, counters, and errors. Only tests import it.
package seqref

import (
	"slices"

	"parhull/internal/engine"
	"parhull/internal/faultinject"
	"parhull/internal/geom"
	"parhull/internal/pointgen"
)

// Seq is engine.Seq over the point->facet conflict graph. conf returns a
// facet's ascending conflict list. cfg.Scratch is ignored; cfg.Arena is
// used exactly as engine.Seq uses it.
func Seq[FV any, R any](cfg engine.SeqConfig[FV, R], conf func(*FV) []int32,
	facets []*FV, n int32, baseSizes []int) ([]int, error) {

	k, g := cfg.Kernel, cfg.Geom
	pf := make([][]*FV, n)
	addPF := func(f *FV) {
		for _, v := range conf(f) {
			pf[v] = append(pf[v], f)
		}
	}
	for _, f := range facets {
		g.Register(f)
		addPF(f)
	}

	hullSizes := append(make([]int, 0, n), baseSizes...)
	alive := len(facets)
	var vis []*FV
	var tasks []engine.Task[FV, R]
	var created []*FV
	for i := int32(len(baseSizes)); i < n; i++ {
		if cfg.Ctx != nil {
			if err := cfg.Ctx.Err(); err != nil {
				return nil, err
			}
		}
		cfg.Inject.Visit(faultinject.SiteSeqInsert)
		vis = vis[:0]
		for _, f := range pf[i] {
			if g.MarkVisible(f, i) {
				vis = append(vis, f)
			}
		}
		if len(vis) == 0 {
			hullSizes = append(hullSizes, alive)
			continue
		}
		var err error
		tasks, err = g.Boundary(vis, i, tasks[:0])
		if err != nil {
			return nil, err
		}
		created = created[:0]
		for _, tk := range tasks {
			t, err := k.NewFacet(cfg.Arena, tk.R, i, tk.T1, tk.T2)
			if err != nil {
				return nil, err
			}
			created = append(created, t)
		}
		for _, f := range vis {
			cfg.Rec.Replaced(k.Kill(f))
		}
		for _, t := range created {
			g.Register(t)
			addPF(t)
		}
		alive += len(created) - len(vis)
		hullSizes = append(hullSizes, alive)
	}
	return hullSizes, nil
}

// Cloud is one named input of the identity tests.
type Cloud struct {
	Name string
	Pts  []geom.Point
}

// Clouds returns the identity tests' inputs of n points in dimension d: the
// general-position ball and sphere, and the degenerate duplicate-heavy,
// near-degenerate, coplanar-heavy (collinear-heavy for d = 2), and
// integer-lattice clouds. Each degenerate cloud is led by a small random
// simplex in general position near its center, so a construction gets past
// the base simplex and meets the ties during insertion; one lattice cloud
// runs unled, so its base may itself be degenerate.
func Clouds(seed int64, n, d int) []Cloud {
	rng := pointgen.NewRNG(seed)
	lead := func(pts []geom.Point) []geom.Point {
		lo, hi := geom.Point(slices.Clone(pts[0])), geom.Point(slices.Clone(pts[0]))
		for _, p := range pts {
			for j := range p {
				lo[j], hi[j] = min(lo[j], p[j]), max(hi[j], p[j])
			}
		}
		base := pointgen.UniformBall(rng, d+1, d)
		for _, p := range base {
			for j := range p {
				p[j] = (lo[j]+hi[j])/2 + (hi[j]-lo[j])/8*p[j]
			}
		}
		return append(base, pointgen.Shuffled(rng, pts)...)
	}
	return []Cloud{
		{"ball", pointgen.UniformBall(rng, n, d)},
		{"sphere", pointgen.OnSphere(rng, n, d)},
		{"duplicate-heavy", lead(pointgen.DuplicateHeavy(rng, n, d, 0.3))},
		{"near-degenerate", lead(pointgen.NearDegenerate(rng, n, d, 0))},
		{"coplanar-heavy", lead(pointgen.CoplanarHeavy(rng, n, d, 0))},
		{"integer-lattice", lead(pointgen.IntegerLattice(rng, n, d, 0))},
		{"integer-lattice-unled", pointgen.IntegerLattice(rng, n, d, 0)},
	}
}

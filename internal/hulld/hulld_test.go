package hulld

import (
	"sort"
	"testing"

	"parhull/internal/baseline"
	"parhull/internal/conmap"
	"parhull/internal/core"
	"parhull/internal/geom"
	"parhull/internal/pointgen"
	"parhull/internal/stats"
)

func workloads(seed int64, n, d int) map[string][]geom.Point {
	rng := pointgen.NewRNG(seed)
	return map[string][]geom.Point{
		"ball":   pointgen.UniformBall(rng, n, d),
		"sphere": pointgen.OnSphere(rng, n, d),
		"cube":   pointgen.InCube(rng, n, d),
	}
}

// verifyHull checks the fundamental hull property against all points:
// no point strictly outside any alive facet, and every point either a hull
// vertex or strictly inside. A facet's outward sign is the opposite of the
// sign of the base simplex's centroid, the interior point the engine uses.
func verifyHull(t *testing.T, pts []geom.Point, res *Result) {
	t.Helper()
	interior := geom.CentroidInto(nil, pts[:len(pts[0])+1])
	for _, f := range res.Facets {
		vp := make([]geom.Point, len(f.Verts))
		for i, u := range f.Verts {
			vp[i] = pts[u]
		}
		out := -geom.OrientSimplex(vp, interior)
		if out == 0 {
			t.Fatalf("alive facet %v is coplanar with the interior point", f)
		}
		for v := range pts {
			if geom.OrientSimplex(vp, pts[v]) == out {
				t.Fatalf("point %d strictly outside alive facet %v", v, f)
			}
		}
	}
}

func TestSeq3DAgainstBruteForce(t *testing.T) {
	for name, pts := range workloads(1, 60, 3) {
		res, err := Seq(pts, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		verifyHull(t, pts, res)
		// Brute-force facet count via the configuration space.
		sp := NewSpace(pts)
		all := make([]int, len(pts))
		for i := range all {
			all[i] = i
		}
		if want, got := len(core.Active(sp, all)), len(res.Facets); want != got {
			t.Fatalf("%s: %d facets, brute force %d", name, got, want)
		}
		// Euler check for simplicial 3-polytopes: V - E + F = 2, E = 3F/2.
		f := len(res.Facets)
		v := len(res.Vertices)
		if f%2 != 0 || v-(3*f/2)+f != 2 {
			t.Fatalf("%s: Euler violated: V=%d F=%d", name, v, f)
		}
	}
}

func TestSeq2DMatchesGraham(t *testing.T) {
	pts := pointgen.UniformBall(pointgen.NewRNG(2), 200, 2)
	res, err := Seq(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	oracle := baseline.GrahamScan(pts)
	sort.Ints(oracle)
	got := make([]int, len(res.Vertices))
	for i, v := range res.Vertices {
		got[i] = int(v)
	}
	if len(got) != len(oracle) {
		t.Fatalf("hull size %d vs %d", len(got), len(oracle))
	}
	for i := range got {
		if got[i] != oracle[i] {
			t.Fatalf("vertex sets differ at %d", i)
		}
	}
}

func TestParMatchesSeqAllDims(t *testing.T) {
	for _, d := range []int{2, 3, 4} {
		n := 120
		if d == 4 {
			n = 60
		}
		for name, pts := range workloads(3, n, d) {
			seq, err := Seq(pts, nil)
			if err != nil {
				t.Fatalf("d=%d %s seq: %v", d, name, err)
			}
			par, err := Par(pts, nil)
			if err != nil {
				t.Fatalf("d=%d %s par: %v", d, name, err)
			}
			rr, err := Rounds(pts, nil)
			if err != nil {
				t.Fatalf("d=%d %s rounds: %v", d, name, err)
			}
			for engName, got := range map[string]*Result{"par": par, "rounds": rr} {
				ss, gs := seq.FacetSet(), got.FacetSet()
				if len(ss) != len(gs) {
					t.Fatalf("d=%d %s %s: %d distinct facets vs %d seq", d, name, engName, len(gs), len(ss))
				}
				for k, c := range ss {
					if gs[k] != c {
						t.Fatalf("d=%d %s %s: facet multiplicity differs", d, name, engName)
					}
				}
				if got.Stats.VisibilityTests != seq.Stats.VisibilityTests {
					t.Fatalf("d=%d %s %s: vtests %d vs %d seq", d, name, engName,
						got.Stats.VisibilityTests, seq.Stats.VisibilityTests)
				}
				if got.Stats.MaxDepth != seq.Stats.MaxDepth {
					t.Fatalf("d=%d %s %s: depth %d vs %d seq", d, name, engName,
						got.Stats.MaxDepth, seq.Stats.MaxDepth)
				}
			}
			if rr.Stats.Rounds < rr.Stats.MaxDepth {
				t.Fatalf("d=%d %s: rounds %d < depth %d", d, name, rr.Stats.Rounds, rr.Stats.MaxDepth)
			}
			verifyHull(t, pts, par)
		}
	}
}

func TestAliveIffEmptyConflicts(t *testing.T) {
	pts := pointgen.OnSphere(pointgen.NewRNG(4), 200, 3)
	res, err := Par(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Created() {
		if f.Alive() != (len(f.Conf) == 0) {
			t.Fatalf("facet %v: alive=%v |C|=%d", f, f.Alive(), len(f.Conf))
		}
	}
}

func TestMapVariantsAgree3D(t *testing.T) {
	pts := pointgen.OnSphere(pointgen.NewRNG(5), 150, 3)
	want, err := Par(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []conmap.RidgeMap[*Facet]{
		conmap.NewCASMap[*Facet](64 * len(pts)),
		conmap.NewTASMap[*Facet](64 * len(pts)),
	} {
		got, err := Par(pts, &Options{Map: m})
		if err != nil {
			t.Fatal(err)
		}
		if got.Stats.FacetsCreated != want.Stats.FacetsCreated ||
			got.Stats.HullSize != want.Stats.HullSize {
			t.Fatalf("map variant differs: %+v vs %+v", got.Stats, want.Stats)
		}
	}
}

func TestDegenerateInputs(t *testing.T) {
	// Base simplex affinely dependent (4 coplanar points in 3D).
	flat := []geom.Point{{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {1, 1, 0}, {0, 0, 1}}
	if _, err := Seq(flat, nil); err == nil {
		t.Error("coplanar base accepted by Seq")
	}
	if _, err := Par(flat, nil); err == nil {
		t.Error("coplanar base accepted by Par")
	}
	if _, err := Seq([]geom.Point{{0, 0, 0}, {1, 0, 0}}, nil); err == nil {
		t.Error("too few points accepted")
	}
	if _, err := Seq(nil, nil); err == nil {
		t.Error("empty input accepted")
	}
	// A later degenerate point (on a facet plane) must not crash; it is
	// either never visible (strict) or handled as an error. Just run it.
	pts := []geom.Point{{0, 0, 0}, {4, 0, 0}, {0, 4, 0}, {0, 0, 4}, {1, 1, 0}}
	if _, err := Par(pts, nil); err != nil {
		t.Logf("degenerate later point: %v (acceptable)", err)
	}
}

func TestTheorem51SupportBruteForce(t *testing.T) {
	// E7: the convex hull configuration space has 2-support (Theorem 5.1),
	// verified by exhaustive search on random instances in d = 2 and 3.
	for _, d := range []int{2, 3} {
		pts := pointgen.OnSphere(pointgen.NewRNG(int64(6+d)), 9, d)
		sp := NewSpace(pts)
		if _, err := core.CheckDegree(sp); err != nil {
			t.Fatal(err)
		}
		if _, err := core.CheckMultiplicity(sp); err != nil {
			t.Fatal(err)
		}
		y := make([]int, len(pts))
		for i := range y {
			y[i] = i
		}
		if err := core.VerifySupport(sp, y); err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
	}
}

func TestSimulateMatchesEngineDepthOrder(t *testing.T) {
	// The framework simulator must run the hull space with support sets of
	// size <= 2 and produce a valid dependence graph.
	pts := pointgen.UniformBall(pointgen.NewRNG(8), 12, 2)
	sp := NewSpace(pts)
	order := make([]int, len(pts))
	for i := range order {
		order[i] = i
	}
	g, err := core.Simulate(sp, order)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if k := core.MaxSupportUsed(g); k > 2 {
		t.Fatalf("support size %d > 2", k)
	}
	// The engine's depth and the simulator's depth may differ (support sets
	// are not unique) but both obey the Theorem 4.2 bound.
	res, err := Seq(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	bound := stats.Theorem42MinSigma(2, 2) * stats.Harmonic(len(pts))
	if float64(g.MaxDepth) >= bound || float64(res.Stats.MaxDepth) >= bound {
		t.Fatalf("depths %d / %d exceed bound %.1f", g.MaxDepth, res.Stats.MaxDepth, bound)
	}
}

func TestDepthLogarithmic3D(t *testing.T) {
	rng := pointgen.NewRNG(9)
	sigma := stats.Theorem42MinSigma(3, 2) // g=d=3, k=2
	for _, n := range []int{100, 1000} {
		pts := pointgen.OnSphere(rng, n, 3)
		res, err := Par(pts, nil)
		if err != nil {
			t.Fatal(err)
		}
		if bound := sigma * stats.Harmonic(n); float64(res.Stats.MaxDepth) >= bound {
			t.Fatalf("n=%d: depth %d >= bound %.1f", n, res.Stats.MaxDepth, bound)
		}
	}
}

func TestParDeterministic(t *testing.T) {
	pts := pointgen.OnSphere(pointgen.NewRNG(10), 300, 3)
	a, err := Par(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Par(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats.FacetsCreated != b.Stats.FacetsCreated ||
		a.Stats.VisibilityTests != b.Stats.VisibilityTests ||
		a.Stats.MaxDepth != b.Stats.MaxDepth {
		t.Fatalf("nondeterministic: %+v vs %+v", a.Stats, b.Stats)
	}
}

func TestInteriorPointsIgnored(t *testing.T) {
	pts := []geom.Point{{-9, -9, -9}, {9, -9, -9}, {0, 9, -9}, {0, 0, 9}}
	rng := pointgen.NewRNG(11)
	for i := 0; i < 100; i++ {
		pts = append(pts, geom.Point{rng.Float64() - 0.5, rng.Float64() - 0.5, rng.Float64() - 0.5})
	}
	res, err := Par(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.FacetsCreated != 4 || res.Stats.HullSize != 4 {
		t.Fatalf("interior points created facets: %+v", res.Stats)
	}
}

// TestRunGenericMatchesEngine: the paper's generic Algorithm 1, run on the
// hull configuration space, activates exactly the facets the specialized
// engines create and terminates with exactly the hull.
func TestRunGenericMatchesEngine(t *testing.T) {
	for _, d := range []int{2, 3} {
		pts := pointgen.OnSphere(pointgen.NewRNG(int64(40+d)), 9, d)
		sp := NewSpace(pts)
		order := make([]int, len(pts))
		for i := range order {
			order[i] = i
		}
		gen, err := core.RunGeneric(sp, order)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Seq(pts, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(gen.Alive) != len(res.Facets) {
			t.Fatalf("d=%d: Algorithm 1 finished with %d configs, engine hull has %d facets",
				d, len(gen.Alive), len(res.Facets))
		}
		// The brute-force support search may activate a few transient
		// configurations the canonical engine never builds (Algorithm 1 is
		// under-specified about which support set to use); it must still
		// cover everything the engine created, and not by much more.
		if len(gen.Added) < len(res.Created()) || len(gen.Added) > 2*len(res.Created()) {
			t.Fatalf("d=%d: Algorithm 1 added %d configs, engine created %d facets",
				d, len(gen.Added), len(res.Created()))
		}
		// The alive configurations must be exactly the hull facets.
		hull := res.FacetSet()
		for _, c := range gen.Alive {
			verts := make([]int32, 0, d)
			for _, o := range sp.Defining(c) {
				verts = append(verts, int32(o))
			}
			if hull[ridgeString(verts)] == 0 {
				t.Fatalf("d=%d: Algorithm 1 kept non-hull config %v", d, sp.Defining(c))
			}
		}
	}
}

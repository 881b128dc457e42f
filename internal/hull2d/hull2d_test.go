package hull2d

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"parhull/internal/baseline"
	"parhull/internal/conmap"
	"parhull/internal/geom"
	"parhull/internal/pointgen"
	"parhull/internal/stats"
)

// hullVertexSet returns the hull vertices as a sorted index slice.
func hullVertexSet(vs []int32) []int {
	out := make([]int, len(vs))
	for i, v := range vs {
		out[i] = int(v)
	}
	sort.Ints(out)
	return out
}

func sameIntSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func oracleSet(pts []geom.Point) []int {
	h := baseline.GrahamScan(pts)
	out := append([]int(nil), h...)
	sort.Ints(out)
	return out
}

func workloads(seed int64, n int) map[string][]geom.Point {
	rng := pointgen.NewRNG(seed)
	return map[string][]geom.Point{
		"disk":     pointgen.UniformBall(rng, n, 2),
		"circle":   pointgen.OnCircle(rng, n),
		"square":   pointgen.InCube(rng, n, 2),
		"gaussian": pointgen.Gaussian(rng, n, 2),
	}
}

func TestSeqMatchesOracle(t *testing.T) {
	for name, pts := range workloads(1, 400) {
		res, err := Seq(pts, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !sameIntSet(hullVertexSet(res.Vertices), oracleSet(pts)) {
			t.Fatalf("%s: hull vertex set differs from Graham scan", name)
		}
		if errs := baseline.CheckHull2D(pts, res.Vertices); len(errs) > 0 {
			t.Fatalf("%s: %v", name, errs[0])
		}
	}
}

func TestParMatchesSeqExactly(t *testing.T) {
	for name, pts := range workloads(2, 300) {
		seq, err := Seq(pts, nil)
		if err != nil {
			t.Fatalf("%s seq: %v", name, err)
		}
		par, err := Par(pts, nil)
		if err != nil {
			t.Fatalf("%s par: %v", name, err)
		}
		// Same hull.
		if !sameIntSet(hullVertexSet(par.Vertices), hullVertexSet(seq.Vertices)) {
			t.Fatalf("%s: hulls differ", name)
		}
		// Theorem 5.4's "exact same facets along the way": identical
		// multiset of created edges.
		se, pe := seq.EdgeSet(), par.EdgeSet()
		if len(se) != len(pe) {
			t.Fatalf("%s: created %d distinct edges seq vs %d par", name, len(se), len(pe))
		}
		for e, c := range se {
			if pe[e] != c {
				t.Fatalf("%s: edge %v created %d times seq, %d par", name, e, c, pe[e])
			}
		}
		// "Exact same set of plane-side tests": equal counts.
		if seq.Stats.VisibilityTests != par.Stats.VisibilityTests {
			t.Fatalf("%s: visibility tests seq=%d par=%d", name,
				seq.Stats.VisibilityTests, par.Stats.VisibilityTests)
		}
		// Identical dependence graph: same max depth and histogram.
		if seq.Stats.MaxDepth != par.Stats.MaxDepth {
			t.Fatalf("%s: depth seq=%d par=%d", name, seq.Stats.MaxDepth, par.Stats.MaxDepth)
		}
		for d := range seq.Stats.DepthHist {
			if seq.Stats.DepthHist[d] != par.Stats.DepthHist[d] {
				t.Fatalf("%s: depth hist differs at %d", name, d)
			}
		}
	}
}

func TestRoundsMatchesSeq(t *testing.T) {
	for name, pts := range workloads(3, 250) {
		seq, err := Seq(pts, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rr, _, err := Rounds(pts, nil)
		if err != nil {
			t.Fatalf("%s rounds: %v", name, err)
		}
		if !sameIntSet(hullVertexSet(rr.Vertices), hullVertexSet(seq.Vertices)) {
			t.Fatalf("%s: hulls differ", name)
		}
		if rr.Stats.VisibilityTests != seq.Stats.VisibilityTests {
			t.Fatalf("%s: vtests rounds=%d seq=%d", name, rr.Stats.VisibilityTests, seq.Stats.VisibilityTests)
		}
		if rr.Stats.Rounds <= 0 {
			t.Fatalf("%s: rounds = %d", name, rr.Stats.Rounds)
		}
		// The recursion depth upper-bounds the facet dependence depth
		// (every facet is created one round after its latest parent).
		if rr.Stats.Rounds < rr.Stats.MaxDepth {
			t.Fatalf("%s: rounds %d < max depth %d", name, rr.Stats.Rounds, rr.Stats.MaxDepth)
		}
	}
}

func TestMapVariantsAgree(t *testing.T) {
	pts := pointgen.OnCircle(pointgen.NewRNG(4), 500)
	want, err := Par(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, mk := range []struct {
		name string
		m    conmap.RidgeMap[*Facet]
	}{
		{"CAS", conmap.NewCASMap[*Facet](8 * len(pts))},
		{"TAS", conmap.NewTASMap[*Facet](8 * len(pts))},
	} {
		got, err := Par(pts, &Options{Map: mk.m})
		if err != nil {
			t.Fatalf("%s: %v", mk.name, err)
		}
		if !sameIntSet(hullVertexSet(got.Vertices), hullVertexSet(want.Vertices)) {
			t.Fatalf("%s: hull differs", mk.name)
		}
		if got.Stats.FacetsCreated != want.Stats.FacetsCreated {
			t.Fatalf("%s: facets %d vs %d", mk.name, got.Stats.FacetsCreated, want.Stats.FacetsCreated)
		}
	}
}

func TestParDeterministic(t *testing.T) {
	pts := pointgen.UniformBall(pointgen.NewRNG(5), 2000, 2)
	a, err := Par(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Par(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The Replaced/Buried split is schedule-dependent (see Stats docs);
	// everything else, including their sum, must be deterministic.
	if a.Stats.FacetsCreated != b.Stats.FacetsCreated ||
		a.Stats.VisibilityTests != b.Stats.VisibilityTests ||
		a.Stats.MaxDepth != b.Stats.MaxDepth ||
		a.Stats.Replaced+a.Stats.Buried != b.Stats.Replaced+b.Stats.Buried {
		t.Fatalf("nondeterministic stats: %+v vs %+v", a.Stats, b.Stats)
	}
	for d := range a.Stats.DepthHist {
		if a.Stats.DepthHist[d] != b.Stats.DepthHist[d] {
			t.Fatalf("nondeterministic depth histogram at %d", d)
		}
	}
}

// TestAliveIffEmptyConflicts checks the output invariant: a facet survives
// iff its conflict set is empty.
func TestAliveIffEmptyConflicts(t *testing.T) {
	pts := pointgen.InCube(pointgen.NewRNG(6), 600, 2)
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

// TestPivotExcluded checks that a facet's own defining points never appear
// in its conflict list and that conflict lists are strictly ascending.
func TestConflictListInvariants(t *testing.T) {
	pts := pointgen.OnCircle(pointgen.NewRNG(7), 300)
	res, err := Par(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Created() {
		for i, v := range f.Conf {
			if v == f.A || v == f.B {
				t.Fatalf("facet %v conflicts with its own endpoint", f)
			}
			if i > 0 && f.Conf[i-1] >= v {
				t.Fatalf("facet %v conflict list not strictly ascending", f)
			}
		}
	}
}

func TestErrorCases(t *testing.T) {
	if _, err := Seq([]geom.Point{{0, 0}, {1, 1}}, nil); err == nil {
		t.Error("2 points accepted")
	}
	collinear := pointgen.Collinear2D(geom.Point{0, 0}, geom.Point{1, 1}, 5)
	if _, err := Seq(collinear, nil); err == nil {
		t.Error("collinear base accepted")
	}
	if _, err := Par(collinear, nil); err == nil {
		t.Error("collinear base accepted by Par")
	}
	if _, err := Seq([]geom.Point{{0, 0}, {1, 0}, {math.NaN(), 1}}, nil); err == nil {
		t.Error("NaN accepted")
	}
	if _, err := Seq([]geom.Point{{0, 0}, {1, 0}, {0, 1, 5}}, nil); err == nil {
		t.Error("mixed dimensions accepted")
	}
	// Base polygon that is not convex CCW.
	bad := []geom.Point{{0, 0}, {1, 0}, {1, 1}, {0.9, 0.1}}
	if _, err := Par(bad, &Options{Base: 4}); err == nil {
		t.Error("non-convex base polygon accepted")
	}
}

func TestTriangleOnly(t *testing.T) {
	pts := []geom.Point{{0, 0}, {2, 0}, {0, 2}}
	for _, run := range []func() (*Result, error){
		func() (*Result, error) { return Seq(pts, nil) },
		func() (*Result, error) { return Par(pts, nil) },
		func() (*Result, error) { r, _, err := Rounds(pts, nil); return r, err },
	} {
		res, err := run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.HullSize != 3 || len(res.Vertices) != 3 {
			t.Fatalf("triangle hull size %d", res.Stats.HullSize)
		}
	}
}

func TestClockwiseBaseTriangleReoriented(t *testing.T) {
	// First three points clockwise; engine must flip them.
	pts := []geom.Point{{0, 0}, {0, 2}, {2, 0}, {3, 3}, {0.5, 0.5}}
	res, err := Par(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameIntSet(hullVertexSet(res.Vertices), oracleSet(pts)) {
		t.Fatal("hull wrong after reorientation")
	}
}

// TestInteriorPointsNeverCreateFacets: points inside the base triangle
// should never appear as facet endpoints.
func TestInteriorPointsIgnored(t *testing.T) {
	pts := []geom.Point{{-10, -10}, {10, -10}, {0, 10}}
	rng := pointgen.NewRNG(8)
	for i := 0; i < 200; i++ {
		pts = append(pts, geom.Point{4*rng.Float64() - 2, 4*rng.Float64() - 2})
	}
	res, err := Par(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.FacetsCreated != 3 || res.Stats.HullSize != 3 {
		t.Fatalf("interior points created facets: %+v", res.Stats)
	}
}

// TestQuick runs the full cross-engine agreement property under
// testing/quick seeds.
func TestQuickCrossEngine(t *testing.T) {
	f := func(seed int64) bool {
		rng := pointgen.NewRNG(seed)
		n := 20 + rng.Intn(180)
		var pts []geom.Point
		if seed%2 == 0 {
			pts = pointgen.UniformBall(rng, n, 2)
		} else {
			pts = pointgen.OnCircle(rng, n)
		}
		seq, err := Seq(pts, nil)
		if err != nil {
			return false
		}
		par, err := Par(pts, nil)
		if err != nil {
			return false
		}
		rr, _, err := Rounds(pts, nil)
		if err != nil {
			return false
		}
		if !sameIntSet(hullVertexSet(seq.Vertices), oracleSet(pts)) {
			return false
		}
		return sameIntSet(hullVertexSet(par.Vertices), hullVertexSet(seq.Vertices)) &&
			sameIntSet(hullVertexSet(rr.Vertices), hullVertexSet(seq.Vertices)) &&
			par.Stats.VisibilityTests == seq.Stats.VisibilityTests &&
			rr.Stats.MaxDepth == seq.Stats.MaxDepth
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestDepthLogarithmic reproduces the Theorem 1.1 shape at package level:
// the dependence depth stays under sigma*H_n for sigma at the theorem's
// threshold, and grows roughly linearly in log n.
func TestDepthLogarithmic(t *testing.T) {
	rng := pointgen.NewRNG(9)
	sigma := stats.Theorem42MinSigma(2, 2) // g=d=2, k=2
	for _, n := range []int{100, 1000, 10000} {
		pts := pointgen.OnCircle(rng, n)
		res, err := Par(pts, nil)
		if err != nil {
			t.Fatal(err)
		}
		bound := sigma * stats.Harmonic(n)
		if float64(res.Stats.MaxDepth) >= bound {
			t.Fatalf("n=%d: depth %d >= bound %.1f", n, res.Stats.MaxDepth, bound)
		}
	}
}

// TestKillAccounting: every created facet is eventually replaced, buried, or
// alive, and the counters agree with the facet states.
func TestKillAccounting(t *testing.T) {
	pts := pointgen.OnCircle(pointgen.NewRNG(10), 400)
	res, err := Par(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	dead := int64(0)
	for _, f := range res.Created() {
		if !f.Alive() {
			dead++
		}
	}
	if got := res.Stats.Replaced + res.Stats.Buried; got != dead {
		t.Fatalf("replaced+buried = %d, dead facets = %d", got, dead)
	}
	if created := res.Created(); res.Stats.FacetsCreated != int64(len(created)) {
		t.Fatalf("created counter %d vs slice %d", res.Stats.FacetsCreated, len(created))
	}
}

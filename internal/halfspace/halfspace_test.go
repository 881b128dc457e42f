package halfspace

import (
	"errors"
	"sort"
	"testing"

	"parhull/internal/core"
	"parhull/internal/geom"
	"parhull/internal/hulld"
	"parhull/internal/pointgen"
	"parhull/internal/stats"
)

// genNormals returns n unit-ish normals covering the sphere, so the
// intersection of {a·x <= 1} is bounded with the origin strictly inside.
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

func subsetKey(ids []int) string {
	cp := append([]int(nil), ids...)
	sort.Ints(cp)
	b := make([]byte, 0, 3*len(cp))
	for _, v := range cp {
		b = append(b, byte(v), byte(v>>8), ',')
	}
	return string(b)
}

// dualVertex is one vertex of the dual route.
type dualVertex struct {
	point geom.Point
	idx   []int
}

// dual runs the dual route as parhull.HalfspaceIntersection does: the hull of
// the normals, then Vertex on every facet.
func dual(normals []geom.Point) ([]dualVertex, error) {
	res, err := hulld.Par(normals, nil)
	if err != nil {
		return nil, err
	}
	var out []dualVertex
	for _, f := range res.Facets {
		idx := make([]int, len(f.Verts))
		for i, v := range f.Verts {
			idx[i] = int(v)
		}
		p, err := Vertex(normals, idx)
		if err != nil {
			return nil, err
		}
		out = append(out, dualVertex{p, idx})
	}
	return out, nil
}

func TestDualMatchesDirectSpace(t *testing.T) {
	for _, d := range []int{2, 3} {
		normals := genNormals(int64(10+d), 14, d)
		verts, err := dual(normals)
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		sp, err := NewSpace(normals)
		if err != nil {
			t.Fatal(err)
		}
		all := make([]int, len(normals))
		for i := range all {
			all[i] = i
		}
		act := core.Active(sp, all)
		if len(act) != len(verts) {
			t.Fatalf("d=%d: direct space has %d vertices, duality %d", d, len(act), len(verts))
		}
		want := map[string]bool{}
		for _, c := range act {
			want[subsetKey(sp.Defining(c))] = true
		}
		for _, v := range verts {
			if !want[subsetKey(v.idx)] {
				t.Fatalf("d=%d: dual vertex %v not in direct active set", d, v.idx)
			}
		}
	}
}

func TestVerticesSatisfyAllConstraints(t *testing.T) {
	normals := genNormals(20, 30, 3)
	verts, err := dual(normals)
	if err != nil {
		t.Fatal(err)
	}
	if len(verts) < 4 {
		t.Fatalf("only %d vertices", len(verts))
	}
	for _, v := range verts {
		for i, a := range normals {
			// The vertex is rounded to float64, so allow the defining
			// halfspaces to be met with equality up to rounding.
			dot := 0.0
			for k := range a {
				dot += a[k] * v.point[k]
			}
			if dot > 1+1e-6 {
				t.Fatalf("vertex %v violates halfspace %d (dot=%v)", v.point, i, dot)
			}
		}
	}
}

func TestTwoSupportHalfspace(t *testing.T) {
	// E9/Section 7: the direct configuration space has 2-support.
	for _, d := range []int{2, 3} {
		normals := genNormals(int64(30+d), 9, d)
		sp, err := NewSpace(normals)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.CheckDegree(sp); err != nil {
			t.Fatal(err)
		}
		if _, err := core.CheckMultiplicity(sp); err != nil {
			t.Fatal(err)
		}
		all := make([]int, len(normals))
		for i := range all {
			all[i] = i
		}
		if err := core.VerifySupport(sp, all); err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
	}
}

func TestSimulateDepth(t *testing.T) {
	// Seed with a bounding simplex so every prefix intersection is bounded
	// (the package's substitute for the paper's boundary configurations).
	normals := append(BoundingSimplex(2), genNormals(40, 13, 2)...)
	sp, err := NewSpace(normals)
	if err != nil {
		t.Fatal(err)
	}
	order := []int{0, 1, 2}
	for _, i := range pointgen.NewRNG(41).Perm(len(normals) - 3) {
		order = append(order, i+3)
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
	bound := stats.Theorem42MinSigma(2, 2) * stats.Harmonic(len(normals))
	if float64(g.MaxDepth) >= bound {
		t.Fatalf("depth %d >= %f", g.MaxDepth, bound)
	}
}

func TestDegenerateNormals(t *testing.T) {
	// Linearly dependent subsets are excluded, not fatal.
	normals := []geom.Point{{1, 0}, {2, 0}, {0, 1}, {0, -1}, {-1, 0}}
	sp, err := NewSpace(normals)
	if err != nil {
		t.Fatal(err)
	}
	// Parallel and anti-parallel pairs define no vertex: {0,1}, {0,4},
	// {1,4}, {2,3} are singular, so C(5,2) - 4 = 6 configurations remain.
	if sp.NumConfigs() != 6 {
		t.Fatalf("configs = %d, want 6", sp.NumConfigs())
	}
	if _, err := NewSpace(nil); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestContains(t *testing.T) {
	if !Contains(geom.Point{1, 0}, geom.Point{1, 5}) {
		t.Error("boundary point rejected")
	}
	if Contains(geom.Point{1, 0}, geom.Point{1.0000001, 0}) {
		t.Error("violating point accepted")
	}
	if !Contains(geom.Point{1, 0}, geom.Point{-100, 3}) {
		t.Error("interior point rejected")
	}
}

// TestVertexRejectsUnbounded feeds Vertex the hulls of two normal sets whose
// intersection is unbounded: one with the origin outside the hull of the
// normals (some facet's dual vertex violates the other half-spaces) and one
// with the origin on a hull facet (a singular system). Both must fail with
// ErrDegenerate, and a bounded set must pass on every facet.
func TestVertexRejectsUnbounded(t *testing.T) {
	shifted := genNormals(7, 60, 3)
	for _, a := range shifted {
		a[0] += 5
	}
	onFacet := []geom.Point{{1, 0, 0}, {0, 1, 0}, {-1, -1, 0}, {0, 0, 1}, {0.1, 0.1, 0.5}}
	for name, normals := range map[string][]geom.Point{"origin outside": shifted, "origin on a facet": onFacet} {
		if _, err := dual(normals); !errors.Is(err, ErrDegenerate) {
			t.Errorf("%s: err = %v, want ErrDegenerate", name, err)
		}
	}
	if _, err := dual(genNormals(8, 60, 3)); err != nil {
		t.Errorf("bounded: %v", err)
	}
}

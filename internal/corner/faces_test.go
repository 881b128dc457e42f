package corner

import (
	"testing"

	"parhull/internal/core"
	"parhull/internal/geom"
	"parhull/internal/hulld"
	"parhull/internal/pointgen"
)

func facesOf(t *testing.T, pts []geom.Point) []Face {
	t.Helper()
	s := mustSpace(t, pts)
	act := core.Active(s, allOf(len(pts)))
	faces, err := Faces(s, act)
	if err != nil {
		t.Fatal(err)
	}
	return faces
}

func TestFacesCube(t *testing.T) {
	faces := facesOf(t, pointgen.Grid3D(2))
	sk := SkeletonOf(faces)
	if sk.F != 6 || sk.V != 8 || sk.E != 12 {
		t.Fatalf("cube skeleton: %+v, want V=8 E=12 F=6", sk)
	}
	for _, f := range faces {
		if len(f.Vertices) != 4 {
			t.Fatalf("cube face with %d vertices: %v", len(f.Vertices), f.Vertices)
		}
	}
	if sk.V-sk.E+sk.F != 2 {
		t.Fatalf("Euler violated: %+v", sk)
	}
}

func TestFacesGridWithExtras(t *testing.T) {
	// 3x3x3 grid: interior, face-center, and edge-midpoint lattice points
	// must not appear in any face cycle.
	faces := facesOf(t, pointgen.Grid3D(3))
	sk := SkeletonOf(faces)
	if sk.F != 6 || sk.V != 8 || sk.E != 12 {
		t.Fatalf("grid skeleton: %+v", sk)
	}
	pts := pointgen.Grid3D(3)
	for _, f := range faces {
		for _, v := range f.Vertices {
			for _, c := range pts[v] {
				if c != 0 && c != 2 {
					t.Fatalf("non-extreme vertex %v on a face", pts[v])
				}
			}
		}
	}
}

func TestFacesCoplanarBox(t *testing.T) {
	// Cube corners plus random points on the faces: the face structure is
	// still the cube.
	pts := append(pointgen.Grid3D(2), pointgen.CoplanarBox3D(pointgen.NewRNG(9), 30)...)
	pts = Dedup(pts)
	faces := facesOf(t, pts)
	sk := SkeletonOf(faces)
	if sk.F != 6 || sk.V != 8 || sk.E != 12 {
		t.Fatalf("boxed skeleton: %+v", sk)
	}
}

func TestFacesGeneralPosition(t *testing.T) {
	// In general position every face is a triangle and the face set matches
	// the simplicial hull engine.
	pts := pointgen.OnSphere(pointgen.NewRNG(10), 14, 3)
	faces := facesOf(t, pts)
	res, err := hulld.Seq(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(faces) != len(res.Facets) {
		t.Fatalf("%d faces vs %d engine facets", len(faces), len(res.Facets))
	}
	want := res.FacetSet()
	for _, f := range faces {
		if len(f.Vertices) != 3 {
			t.Fatalf("non-triangle face in general position: %v", f.Vertices)
		}
		verts := []int32{int32(f.Vertices[0]), int32(f.Vertices[1]), int32(f.Vertices[2])}
		sortI32(verts)
		key := string(encode(verts))
		if want[key] == 0 {
			t.Fatalf("face %v is not an engine facet", f.Vertices)
		}
	}
	sk := SkeletonOf(faces)
	if sk.V-sk.E+sk.F != 2 {
		t.Fatalf("Euler violated: %+v", sk)
	}
}

func sortI32(a []int32) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// encode mirrors hulld's facet key encoding.
func encode(ids []int32) []byte {
	b := make([]byte, 4*len(ids))
	for i, v := range ids {
		u := uint32(v)
		b[4*i] = byte(u)
		b[4*i+1] = byte(u >> 8)
		b[4*i+2] = byte(u >> 16)
		b[4*i+3] = byte(u >> 24)
	}
	return b
}

func TestFacesErrors(t *testing.T) {
	s := mustSpace(t, pointgen.Grid3D(2))
	if _, err := Faces(s, nil); err == nil {
		t.Error("empty active set accepted")
	}
}

func TestSkeletonOf(t *testing.T) {
	sk := SkeletonOf([]Face{{Vertices: []int{0, 1, 2}}, {Vertices: []int{0, 2, 3}}})
	if sk.V != 4 || sk.E != 5 || sk.F != 2 {
		t.Fatalf("%+v", sk)
	}
}

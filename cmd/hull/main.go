// Command hull computes convex hulls from generated or file-based point
// sets using the engines of the parhull library.
//
// Usage:
//
//	hull -n 100000 -d 2 -dist ball -engine par          # generated input
//	hull -in points.txt -engine seq -facets             # file input
//
// Input files contain one point per line, whitespace-separated coordinates;
// all lines must share a dimension. Output reports the hull size, the
// instrumentation counters, and optionally the hull facets/vertices.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"parhull"
	"parhull/internal/geom"
	"parhull/internal/pointgen"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hull: ")
	var (
		n       = flag.Int("n", 100000, "number of points to generate")
		d       = flag.Int("d", 2, "dimension of generated points")
		dist    = flag.String("dist", "ball", "distribution: ball | sphere | cube | gauss")
		seed    = flag.Int64("seed", 1, "generator / shuffle seed")
		in      = flag.String("in", "", "read points from file instead of generating")
		engine  = flag.String("engine", "par", "engine: seq | par | rounds")
		mapKind = flag.String("map", "sharded", "ridge map: sharded | cas | tas")
		shuffle = flag.Bool("shuffle", true, "insert in random order (Theorem 1.1 regime)")
		facets  = flag.Bool("facets", false, "print hull facets")
		verts   = flag.Bool("vertices", false, "print hull vertex indices")
	)
	flag.Parse()

	var pts []parhull.Point
	var err error
	if *in != "" {
		pts, err = readPoints(*in)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		rng := pointgen.NewRNG(*seed)
		switch *dist {
		case "ball":
			pts = pointgen.UniformBall(rng, *n, *d)
		case "sphere":
			pts = pointgen.OnSphere(rng, *n, *d)
		case "cube":
			pts = pointgen.InCube(rng, *n, *d)
		case "gauss":
			pts = pointgen.Gaussian(rng, *n, *d)
		default:
			log.Fatalf("unknown distribution %q", *dist)
		}
	}
	if len(pts) == 0 {
		log.Fatal("no input points")
	}
	dim := len(pts[0])

	opt := &parhull.Options{Shuffle: *shuffle, Seed: *seed}
	switch *engine {
	case "seq":
		opt.Engine = parhull.EngineSequential
	case "par":
		opt.Engine = parhull.EngineParallel
	case "rounds":
		opt.Engine = parhull.EngineRounds
	default:
		log.Fatalf("unknown engine %q", *engine)
	}
	switch *mapKind {
	case "sharded":
		opt.Map = parhull.MapSharded
	case "cas":
		opt.Map = parhull.MapCAS
	case "tas":
		opt.Map = parhull.MapTAS
	default:
		log.Fatalf("unknown map %q", *mapKind)
	}

	start := time.Now()
	var stats parhull.Stats
	var hullVerts []int
	var hullFacets []parhull.Facet
	if dim == 2 {
		res, err := parhull.Hull2D(pts, opt)
		if err != nil {
			log.Fatal(err)
		}
		stats = res.Stats
		hullVerts = res.Vertices
		for i := range res.Vertices {
			j := (i + 1) % len(res.Vertices)
			hullFacets = append(hullFacets, parhull.Facet{Vertices: []int{res.Vertices[i], res.Vertices[j]}})
		}
	} else {
		res, err := parhull.HullD(pts, opt)
		if err != nil {
			log.Fatal(err)
		}
		stats = res.Stats
		hullVerts = res.Vertices
		hullFacets = res.Facets
	}
	elapsed := time.Since(start)

	fmt.Printf("points: %d  dim: %d  engine: %s\n", len(pts), dim, *engine)
	fmt.Printf("hull:   %d facets, %d vertices\n", stats.HullSize, len(hullVerts))
	fmt.Printf("time:   %v\n", elapsed.Round(time.Microsecond))
	fmt.Printf("stats:  vtests=%d created=%d replaced=%d buried=%d depth=%d",
		stats.VisibilityTests, stats.FacetsCreated, stats.Replaced, stats.Buried, stats.MaxDepth)
	if stats.Rounds > 0 {
		fmt.Printf(" rounds=%d", stats.Rounds)
	}
	fmt.Println()
	if *verts {
		fmt.Println("vertices:", hullVerts)
	}
	if *facets {
		for _, f := range hullFacets {
			fmt.Println(f.Vertices)
		}
	}
}

func readPoints(path string) ([]parhull.Point, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var pts []geom.Point
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		p := make(geom.Point, len(fields))
		for i, fd := range fields {
			v, err := strconv.ParseFloat(fd, 64)
			if err != nil {
				return nil, fmt.Errorf("%s:%d: %v", path, line, err)
			}
			p[i] = v
		}
		if len(pts) > 0 && len(p) != len(pts[0]) {
			return nil, fmt.Errorf("%s:%d: dimension %d, want %d", path, line, len(p), len(pts[0]))
		}
		pts = append(pts, p)
	}
	return pts, sc.Err()
}

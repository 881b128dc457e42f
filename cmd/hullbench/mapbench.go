package main

import (
	"fmt"
	"sync"
	"time"

	"parhull/internal/conmap"
	"parhull/internal/engine"
	"parhull/internal/hull2d"
	"parhull/internal/pointgen"
)

// expMap — E10: the three ridge-map protocols, microbenchmarked and then
// run inside the full hull engine.
func expMap() {
	n := sz(200000)
	// Microbenchmark: n Meet pairs (winner + loser) per map, on ridges of
	// two indices (3D hull edges, which MakeKey keys exactly) and of three
	// (4D hull ridges, which it hashes). The fixed tables keep every ridge;
	// the sharded map keeps only the ridges waiting for their loser.
	w := table()
	fmt.Fprintln(w, "map\tkey indices\tns/op (1 goroutine)\tns/op (4 goroutines)")
	for _, width := range []int{2, 3} {
		for _, mk := range []struct {
			name string
			make func() conmap.RidgeMap[*int]
		}{
			{"Alg 4 (CAS)", func() conmap.RidgeMap[*int] { return conmap.NewCASMap[*int](n) }},
			{"Alg 5 (TAS)", func() conmap.RidgeMap[*int] { return conmap.NewTASMap[*int](n) }},
			{"sharded", func() conmap.RidgeMap[*int] { return conmap.NewShardedMap[*int](4 * mapLag) }},
		} {
			serial := timeMap(mk.make(), n, 1, width)
			par := timeMap(mk.make(), n, 4, width)
			fmt.Fprintf(w, "%s\t%d\t%.0f\t%.0f\n", mk.name, width, serial, par)
		}
	}
	w.Flush()

	// End-to-end: the 2D hull with each map installed, and with none — the
	// vertex-indexed slot table MapSharded selects in 2D.
	pts := pointgen.OnCircle(pointgen.NewRNG(5), sz(100000))
	w2 := table()
	fmt.Fprintln(w2, "map\thull time\tfacets")
	for _, mk := range []struct {
		name string
		m    conmap.RidgeMap[*hull2d.Facet]
	}{
		{"Alg 4 (CAS)", conmap.NewCASMap[*hull2d.Facet](8 * len(pts))},
		{"Alg 5 (TAS)", conmap.NewTASMap[*hull2d.Facet](8 * len(pts))},
		{"sharded", conmap.NewShardedMap[*hull2d.Facet](engine.DefaultMapCapacity(len(pts), 2))},
		{"vertex slots (2D MapSharded)", nil},
	} {
		start := time.Now()
		res, err := hull2d.Par(pts, &hull2d.Options{Map: mk.m})
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Fprintf(w2, "%s\t%v\t%d\n", mk.name, time.Since(start).Round(time.Microsecond), res.Stats.FacetsCreated)
	}
	w2.Flush()
	fmt.Println("paper: both protocols cost O(log n) whp per op (Sec 5.2, Appendix A); CAS is the simpler, TAS the weaker-primitive variant.")
}

// mapLag is how many ridges after its winner a ridge's loser arrives in
// timeMap, per goroutine, so the sharded map holds that many waiting ridges
// per goroutine: at 4 goroutines 16,384, about the open boundary of a
// 1e5-point sphere build.
const mapLag = 4096

// timeMap measures the average cost of a Meet (half winners, half losers,
// each loser taking its partner), across g goroutines, on ridges of width
// consecutive indices. Each goroutine's loser of ridge i arrives with the
// winner of ridge i+mapLag.
func timeMap(m conmap.RidgeMap[*int], n, g, width int) float64 {
	vals := make([]*int, 2*n)
	for i := range vals {
		vals[i] = new(int)
	}
	keys := make([]conmap.Key, n)
	for i := range keys {
		ids := make([]int32, width)
		for j := range ids {
			ids[j] = int32(i + j)
		}
		keys[i] = conmap.MakeKey(ids)
	}
	meet := func(i, side int, want *int) {
		p, err := m.Meet(keys[i], vals[2*i+side])
		if err != nil || p != want {
			panic(fmt.Sprintf("ridge %d side %d: partner %p, error %v", i, side, p, err)) // tables are sized for n
		}
	}
	start := time.Now()
	var wg sync.WaitGroup
	per := n / g
	for gi := 0; gi < g; gi++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			for i := base; i < base+per+mapLag; i++ {
				if i < base+per {
					meet(i, 0, nil)
				}
				if j := i - mapLag; j >= base {
					meet(j, 1, vals[2*j])
				}
			}
		}(gi * per)
	}
	wg.Wait()
	ops := 2 * per * g
	return float64(time.Since(start).Nanoseconds()) / float64(ops)
}

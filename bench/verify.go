package main

import (
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"time"

	"parhull"
	"parhull/internal/certify"
	"parhull/internal/geom"
)

// fingerprinter hashes a hull canonically, so that every engine, schedule
// and insertion order that builds the same hull gets the same value:
// FNV-1a over the facet tuples (each sorted, then sorted lexicographically)
// followed by the vertex list as returned, which HullDResult documents as
// sorted. A 2D cycle is hashed from its minimum index on, keeping its CCW
// order. The buffers are retained, so checking a timed build allocates
// nothing.
type fingerprinter struct {
	flat []int
	ord  []int
}

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnvInt(h uint64, v int) uint64 {
	u := uint64(v)
	for i := 0; i < 8; i++ {
		h ^= u & 0xff
		h *= fnvPrime
		u >>= 8
	}
	return h
}

func (f *fingerprinter) of(h hull) uint64 {
	if h.facets == nil {
		return cycleFingerprint(h.vertices)
	}
	d := len(h.facets[0].Vertices)
	f.flat = f.flat[:0]
	for _, fc := range h.facets {
		if len(fc.Vertices) != d {
			return 0 // not a simplicial facet list: matches no reference
		}
		start := len(f.flat)
		f.flat = append(f.flat, fc.Vertices...)
		slices.Sort(f.flat[start:])
	}
	f.ord = f.ord[:0]
	for i := range h.facets {
		f.ord = append(f.ord, i)
	}
	flat := f.flat
	slices.SortFunc(f.ord, func(a, b int) int {
		return slices.Compare(flat[a*d:(a+1)*d], flat[b*d:(b+1)*d])
	})
	x := fnvInt(fnvOffset, len(h.facets))
	for _, i := range f.ord {
		for _, v := range flat[i*d : (i+1)*d] {
			x = fnvInt(x, v)
		}
	}
	x = fnvInt(x, len(h.vertices))
	for _, v := range h.vertices {
		x = fnvInt(x, v)
	}
	return x
}

func cycleFingerprint(cycle []int) uint64 {
	x := fnvInt(fnvOffset, len(cycle))
	if len(cycle) == 0 {
		return x
	}
	m := 0
	for i, v := range cycle {
		if v < cycle[m] {
			m = i
		}
	}
	for i := range cycle {
		x = fnvInt(x, cycle[(m+i)%len(cycle)])
	}
	return x
}

func formatFP(fp uint64) string { return strconv.FormatUint(fp, 16) }

// verifyOut is what the verify child reports.
type verifyOut struct {
	Refs    []string `json:"refs"`  // reference fingerprint of each cloud
	SeqS    float64  `json:"seq_s"` // median reference build time
	Problem string   `json:"problem,omitempty"`
}

// verify computes the reference fingerprint of every cloud at full n with
// Algorithm 2 (refOptions), then certifies a reduced-n instance from the
// input alone (internal/certify) and checks that the default-options build
// and the reference agree on it. A reference build that fails is an error;
// a failed certification or cross-check is reported as a Problem.
func verify(w workload, seed int64, scale float64) (verifyOut, error) {
	var out verifyOut
	var fp fingerprinter
	var times []float64
	var cal calibrator
	for i, pts := range w.inputs(seed, scale) {
		b := parhull.NewBuilder(refOptions(seed))
		t0 := time.Now()
		h, err := w.build(b, pts)
		times = append(times, time.Since(t0).Seconds())
		if err != nil {
			b.Close()
			return out, fmt.Errorf("reference build of cloud %d: %w", i, err)
		}
		out.Refs = append(out.Refs, formatFP(fp.of(h)))
		b.Close()
		runtime.GC() // no GC cycle may still run while the kernel does
		for k := 0; k < 3; k++ {
			cal.sample()
		}
	}
	out.SeqS = median(times) * cal.scale()
	if err := certifySmall(w, w.certInput(seed, scale), seed); err != nil {
		out.Problem = err.Error()
	}
	return out, nil
}

func certifySmall(w workload, pts []geom.Point, seed int64) error {
	b := parhull.NewBuilder(options(seed))
	defer b.Close()
	h, err := w.build(b, pts)
	if err != nil {
		return fmt.Errorf("build at n=%d: %w", len(pts), err)
	}
	if w.dim == 2 {
		_, err = certify.Hull2D(pts, h.vertices)
	} else {
		facets := make([][]int, len(h.facets))
		for i, f := range h.facets {
			facets[i] = f.Vertices
		}
		_, err = certify.Hull(pts, facets, h.vertices)
	}
	if err != nil {
		return fmt.Errorf("certify at n=%d: %w", len(pts), err)
	}
	rb := parhull.NewBuilder(refOptions(seed))
	defer rb.Close()
	rh, err := w.build(rb, pts)
	if err != nil {
		return fmt.Errorf("reference build at n=%d: %w", len(pts), err)
	}
	var fp fingerprinter
	if got, want := fp.of(h), fp.of(rh); got != want {
		return fmt.Errorf("default build and reference disagree at n=%d", len(pts))
	}
	return nil
}

package geom

import (
	"cmp"
	"slices"
)

// ZOrderPerm returns a permutation of {0, ..., len(pts)-1} that orders the
// points along the Morton (Z-order) curve of their bounding box: each
// coordinate is quantized to floor(63/d) bits over the cloud's per-dimension
// range and the bits are interleaved (highest first) into one sort key. Ties
// — points in the same Morton cell, or any points when a dimension's range
// collapses — break by index, so the permutation is deterministic.
//
// Consecutive positions of the returned order are spatially close, which is
// what the pre-hull pipeline exploits: contiguous blocks of a Z-ordered
// cloud are compact regions, so block sub-hulls stay small and their
// conflict scans touch coherent memory.
//
// Non-finite coordinates quantize to cell 0 instead of poisoning the
// comparison; callers that need a typed error for NaN/Inf validate the cloud
// first (the engines do).
func ZOrderPerm(pts []Point) []int32 {
	perm, _ := ZOrderPermInto(nil, nil, pts)
	return perm
}

// ZOrderPermInto is ZOrderPerm writing the permutation into perm and the
// Morton keys into keys, reusing their backing arrays when large enough. It
// returns both (possibly regrown) buffers so a caller can retain them.
func ZOrderPermInto(perm []int32, keys []uint64, pts []Point) ([]int32, []uint64) {
	n := len(pts)
	perm = slices.Grow(perm[:0], n)[:n]
	for i := range perm {
		perm[i] = int32(i)
	}
	if n == 0 || len(pts[0]) == 0 {
		return perm, keys
	}
	d := len(pts[0])
	bits := 63 / d
	if bits < 1 {
		bits = 1
	}
	lo, hi := bounds(pts, d)
	keys = slices.Grow(keys[:0], n)[:n]
	max := float64(uint64(1)<<uint(bits) - 1)
	q := make([]uint64, d)
	for i, p := range pts {
		for j := 0; j < d; j++ {
			q[j] = quantize(p[j], lo[j], hi[j], max)
		}
		keys[i] = interleave(q, bits)
	}
	slices.SortFunc(perm, func(a, b int32) int {
		if c := cmp.Compare(keys[a], keys[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return perm, keys
}

// bounds returns the per-dimension min and max over the cloud, ignoring
// non-finite coordinates (NaN comparisons are false, so they never move the
// running bounds off their finite seed).
func bounds(pts []Point, d int) (lo, hi []float64) {
	lo = make([]float64, d)
	hi = make([]float64, d)
	for j := 0; j < d; j++ {
		lo[j], hi[j] = pts[0][j], pts[0][j]
	}
	for _, p := range pts {
		for j := 0; j < d; j++ {
			if p[j] < lo[j] {
				lo[j] = p[j]
			}
			if p[j] > hi[j] {
				hi[j] = p[j]
			}
		}
	}
	return lo, hi
}

// quantize maps v in [lo, hi] onto an integer cell in [0, max]. A collapsed
// or non-finite range maps everything to cell 0.
func quantize(v, lo, hi, max float64) uint64 {
	span := hi - lo
	if !(span > 0) {
		return 0
	}
	t := (v - lo) / span * max
	if !(t > 0) { // NaN or <= 0
		return 0
	}
	if t > max {
		t = max
	}
	return uint64(t)
}

// interleave builds the Morton key: bit b of dimension j lands at position
// b*d + (d-1-j) from the low end, i.e. the key cycles through the dimensions
// from the highest quantized bit down.
func interleave(q []uint64, bits int) uint64 {
	var key uint64
	for b := bits - 1; b >= 0; b-- {
		for _, qj := range q {
			key = key<<1 | (qj>>uint(b))&1
		}
	}
	return key
}

package geom

import "slices"

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
	perm, _ := ZOrderPermInto(new(ZOrder), pts)
	return perm
}

// Radix sort geometry: zPasses digits of zRadix bits cover the 63-bit keys.
const (
	zRadix  = 11
	zPasses = (63 + zRadix - 1) / zRadix
	zMask   = 1<<zRadix - 1
)

// ZOrder is the retained state of ZOrderPermInto: the permutation and the
// keys it returns, the radix sort's second permutation buffer and digit
// counts, the bounding box, and the bit-spreading table of the last
// dimension above 3. The zero value is ready; every buffer is grow-only.
type ZOrder struct {
	perm, tmp []int32
	keys      []uint64
	count     []int32
	lo, hi    []float64
	spread    [256]uint64
	spreadD   int
}

// ZOrderPermInto is ZOrderPerm on the retained buffers of z. It returns the
// permutation and the Morton key of every point (keys[i] belongs to
// pts[i]); both stay valid until the next call on z. It runs in linear
// time: the keys interleave by magic-bit masks (d = 2, 3) or a byte table
// (other d), and the permutation is an LSD radix sort by key, which is
// stable, so tied keys keep index order as the definition asks.
func ZOrderPermInto(z *ZOrder, pts []Point) ([]int32, []uint64) {
	n := len(pts)
	z.perm = slices.Grow(z.perm[:0], n)[:n]
	for i := range z.perm {
		z.perm[i] = int32(i)
	}
	if n == 0 || len(pts[0]) == 0 {
		return z.perm, z.keys[:0]
	}
	d := len(pts[0])
	z.keys = slices.Grow(z.keys[:0], n)[:n]
	z.bounds(pts, d)
	z.interleave(pts, d)
	z.sort()
	return z.perm, z.keys
}

// bounds sets z.lo and z.hi to the per-dimension min and max over the
// cloud, ignoring non-finite coordinates (NaN comparisons are false, so they
// never move the running bounds off their finite seed).
func (z *ZOrder) bounds(pts []Point, d int) {
	z.lo = append(z.lo[:0], pts[0][:d]...)
	z.hi = append(z.hi[:0], pts[0][:d]...)
	lo, hi := z.lo, z.hi
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
}

// interleave fills z.keys with the Morton keys: bit b of dimension j lands
// at position b*d + (d-1-j) from the low end, i.e. the key cycles through
// the dimensions from the highest quantized bit down. So the key is the OR
// over j of spread_d(q_j) << (d-1-j), where spread_d moves bit b to b*d.
func (z *ZOrder) interleave(pts []Point, d int) {
	bits := 63 / d
	if bits < 1 {
		bits = 1
	}
	max := float64(uint64(1)<<uint(bits) - 1)
	lo, hi, keys := z.lo, z.hi, z.keys
	switch d {
	case 2:
		for i, p := range pts {
			keys[i] = spread2(quantize(p[0], lo[0], hi[0], max))<<1 |
				spread2(quantize(p[1], lo[1], hi[1], max))
		}
	case 3:
		for i, p := range pts {
			keys[i] = spread3(quantize(p[0], lo[0], hi[0], max))<<2 |
				spread3(quantize(p[1], lo[1], hi[1], max))<<1 |
				spread3(quantize(p[2], lo[2], hi[2], max))
		}
	default:
		if z.spreadD != d {
			for v := range z.spread {
				var s uint64
				for b := 0; b < 8; b++ {
					s |= uint64(v>>b&1) << uint(b*d)
				}
				z.spread[v] = s
			}
			z.spreadD = d
		}
		nbytes := (bits + 7) / 8
		for i, p := range pts {
			var key uint64
			for j := 0; j < d; j++ {
				q := quantize(p[j], lo[j], hi[j], max)
				var s uint64
				for m := 0; m < nbytes; m++ {
					s |= z.spread[q>>uint(8*m)&0xff] << uint(8*m*d)
				}
				key |= s << uint(d-1-j)
			}
			keys[i] = key
		}
	}
}

// sort orders z.perm (the identity on entry) by z.keys with an LSD radix
// sort over zPasses digits. Each pass counts its digit in a sequential pass
// over the keys, into one table the passes share; a digit that every key
// shares is skipped. Each pass is a stable scatter between z.perm and
// z.tmp, which swap roles, so the sorted order ends in z.perm either way.
func (z *ZOrder) sort() {
	n := len(z.perm)
	keys := z.keys
	z.tmp = slices.Grow(z.tmp[:0], n)[:n]
	z.count = slices.Grow(z.count[:0], 1<<zRadix)[:1<<zRadix]
	c := z.count
	for p := 0; p < zPasses; p++ {
		shift := uint(p * zRadix)
		clear(c)
		for _, k := range keys {
			c[k>>shift&zMask]++
		}
		if int(c[keys[0]>>shift&zMask]) == n {
			continue
		}
		var sum int32
		for i, v := range c {
			c[i] = sum
			sum += v
		}
		dst := z.tmp
		for _, v := range z.perm {
			dig := keys[v] >> shift & zMask
			dst[c[dig]] = v
			c[dig]++
		}
		z.perm, z.tmp = dst, z.perm
	}
}

// spread2 moves bit b of a value below 2^32 to bit 2b.
func spread2(x uint64) uint64 {
	x &= 0xffffffff
	x = (x | x<<16) & 0x0000ffff0000ffff
	x = (x | x<<8) & 0x00ff00ff00ff00ff
	x = (x | x<<4) & 0x0f0f0f0f0f0f0f0f
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x
}

// spread3 moves bit b of a value below 2^21 to bit 3b.
func spread3(x uint64) uint64 {
	x &= 0x1fffff
	x = (x | x<<32) & 0x1f00000000ffff
	x = (x | x<<16) & 0x1f0000ff0000ff
	x = (x | x<<8) & 0x100f00f00f00f00f
	x = (x | x<<4) & 0x10c30c30c30c30c3
	x = (x | x<<2) & 0x1249249249249249
	return x
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

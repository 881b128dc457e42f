package prehull

import (
	"math"
	"math/bits"
	"slices"

	"parhull/internal/geom"
	"parhull/internal/sched"
)

const (
	// cullSampleMin and cullSampleMax clamp the prefix length hulled by the
	// stage-1 interior cull (cullSampleFor). A larger sample leaves fewer
	// survivors; the cell index keeps its per-point cost flat in the sample
	// hull's size h, so only the sample hull and the index grow with it.
	// The cap stays at 8192 because the sequential kernel's conflict filter
	// forks sched.ParallelFor over 8,192 points or more, which a larger
	// sample hull would nest inside Reduce (EXPERIMENTS A15).
	cullSampleMin = 2048
	cullSampleMax = 8192
	// cullMinN disables the cull below this input size — with few points
	// per sample-hull facet the scan cannot pay for itself.
	cullMinN = 8 * cullSampleMin
	// cullDense disables the cull when the sample hull keeps more than
	// 1/cullDense of the sample (boundary-heavy input: nothing inside).
	cullDense = 4

	// capMargin widens every facet cap of the cell index (radians). It
	// absorbs the float error of the caps and of a point's cell, which is
	// of order 1e-15.
	capMargin = 1e-9
	// cellsPerFacet sets the cube map's resolution: about this many cells
	// per sample facet. Finer cells list fewer facets each, but the index
	// then costs more to build and holds more cache; 2 measured fastest
	// against 4 and 8 (EXPERIMENTS A15).
	cellsPerFacet = 2
	// maxCells bounds the cube map's cell count in any dimension.
	maxCells = 1 << 15
)

// cullSampleFor returns the cull sample length for n points: the power of
// two nearest n/128, clamped to [cullSampleMin, cullSampleMax].
func cullSampleFor(n int) int {
	x := n / 128
	if x <= cullSampleMin {
		return cullSampleMin
	}
	p := 1 << (bits.Len(uint(x)) - 1)
	if x-p > 2*p-x {
		p *= 2
	}
	return min(p, cullSampleMax)
}

// cullState is stage 1's certified plane set and its direction index,
// rebuilt per call into retained buffers.
//
// Directions from the sample centroid c are measured in scaled coordinates:
// u = S(x - c), where S multiplies axis j by the power of two nearest the
// ratio of the sample's widest extent around c to its extent along j, so a
// flat cloud looks round and its facet caps stay small (a round cloud gets
// S = 1). A linear map takes the cone of directions through a facet to the
// cone through its image, so everything below holds in the scaled
// coordinates as it does in the plain ones; and a power of two scales
// exactly, so a scaled direction rounds as a plain one does.
//
// The index is a cube map around c. A direction u belongs to face
// (k, sign u_k), where k is the axis of the largest |u_k|, and within the
// face to cell floor((u_j/|u_k| + 1) K/2) along every other axis j: 2d
// faces of K^(d-1) cells. Cell C lists every sample facet whose
// cap meets C's cap, where a facet's cap is the smallest-angle cap around
// the mean of its vertex directions that holds them all, widened by
// capMargin, and C's cap is the cap around its center direction that holds
// its corners. Caps under 90° hold the cone they are built around, so a
// direction in cell C and in facet f's cone (the directions from c through
// f) has f in C's list by the triangle inequality on the sphere.
//
// That is what makes the query sound: the ray from c through a point x
// leaves the sample hull through the facet f whose cone holds x - c (and
// whose scaled cone holds u), and along that ray x is strictly inside the
// hull exactly when it is strictly under f's plane. So a point every plane
// of its cell certifies strictly interior is strictly interior, and the
// scan tests a point against its cell's planes only. When no cap fits — no
// inscribed sphere, which keeps points near c (whose direction is
// undefined) out of the query, or a facet cap of 90° or more — the index
// is one cell that lists every plane, and cullInterior hulls the smallest
// sample instead.
type cullState struct {
	centroid []float64
	scale    []float64 // S, per axis
	box      []float64 // per-axis max |coordinate| over the sample
	vp       []geom.Point
	// planes are the sample hull's facet planes, oriented so the sample
	// interior is strictly negative; rows repeats them as flat
	// [n0 n1 n2 off] rows when d == 3, for the inlined scan3 loop.
	planes []geom.Plane
	rows   [][4]float64
	eps    float64 // static certification threshold over the sample box
	r2     float64 // squared certified inscribed-sphere radius of S(x - c) (0 = none)

	// The cell index: k cells per axis on each face (0 = one cell), and
	// cell c's planes list[start[c]:start[c+1]].
	k     int
	halfK float64
	start []int32
	list  []int32

	// Index build state: facet caps (center, radius), per call; the
	// face-local cell caps of the last (d, k), kept while those stay the
	// same.
	capCtr []float64
	capRad []float64
	cells  cellCaps
}

// cellCaps holds the caps of the K^(d-1) cells of one cube-map face, in
// face-local coordinates (the face's axis first, then the other axes in
// increasing order); every face has the same caps up to that relabeling.
// tc[i] is the center coordinate of index i along an axis; cell l has the
// center direction (1, tc[l's indices]) * inv[l] and a radius whose cosine
// and sine are cos[l] and sin[l]. maxRad is the largest radius, and face
// the largest angle from the face's axis to one of its cell centers.
type cellCaps struct {
	d, k     int
	tc       []float64
	inv      []float64
	cos, sin []float64
	maxRad   float64
	face     float64
}

// cullInterior is stage 1: it returns the ascending index list of points
// that survive the sample-hull interior filter, or nil when the cull is
// skipped (input too small, dimension uncached, degenerate or dense sample,
// uncertifiable planes, or nothing culled). Only errors that must abort the
// whole reduction (cancellation, injected panics, bad coordinates) are
// returned.
func (s *Scratch) cullInterior(pts []geom.Point, nw int) ([]int32, error) {
	n, d := len(pts), s.d
	if n < cullMinN || d > geom.MaxPlaneDim {
		return nil, nil
	}
	c := &s.cull
	m := cullSampleFor(n)
	ok, err := c.build(pts[:m], d, s.cfg, &s.workers[0])
	if ok && c.k == 0 && m > cullSampleMin {
		// No cell index: a point pays one evaluation per sample facet, and
		// the smallest sample has the fewest.
		ok, err = c.build(pts[:cullSampleMin], d, s.cfg, &s.workers[0])
	}
	if !ok || err != nil {
		return nil, err
	}

	// Scan: a point is dropped only when it lies inside the certified
	// inscribed sphere, or inside the sample box with every plane of its
	// cell certifying it strictly interior (Eval < -Eps). The plane loop
	// exits on the first plane that fails to certify.
	s.keepMask = slices.Grow(s.keepMask[:0], n)[:n]
	clear(s.keepMask)
	s.pts = pts
	s.chunk = max(minChunk, (n+blocksPerWorker*nw-1)/(blocksPerWorker*nw))
	for w := range s.workers[:nw] {
		s.workers[w].kept = 0
	}
	if err := s.cycle(stageCull, (n+s.chunk-1)/s.chunk, nw); err != nil {
		return nil, err
	}
	if err := s.cfg.ctxErr(); err != nil {
		return nil, err
	}
	k := 0
	for w := range s.workers[:nw] {
		k += s.workers[w].kept
	}
	if k == n {
		return nil, nil
	}
	cand := slices.Grow(s.cand[:0], k)
	for i, m := range s.keepMask {
		if m {
			cand = append(cand, int32(i))
		}
	}
	s.cand = cand
	return cand, nil
}

// scanChunk scans chunk t of the cull on worker wid.
func (s *Scratch) scanChunk(wid, t int) {
	if s.cfg.ctxErr() != nil {
		return // the post-stage ctx check in cullInterior reports it
	}
	lo := t * s.chunk
	hi := min(lo+s.chunk, len(s.pts))
	s.workers[wid].kept += s.cull.scan(s.pts, lo, hi, s.keepMask)
}

// build hulls the cull sample on worker w's retained engine and derives the
// certified plane set and its cell index. It reports false when the cull
// must be skipped (degenerate or boundary-heavy sample, uncertifiable
// planes).
func (c *cullState) build(sample []geom.Point, d int, cfg Config, w *seqWorker) (bool, error) {
	var fverts []int32
	var verts int
	var herr error
	if perr := sched.Recovered(func() {
		fverts, verts, herr = w.hullFacets(cfg, d, sample)
	}); perr != nil {
		return false, perr
	}
	if herr != nil {
		if isDegenerate(herr) {
			return false, nil // flat sample: nothing certifiable, skip the cull
		}
		return false, herr
	}
	if verts > len(sample)/cullDense {
		return false, nil // boundary-heavy input: the cull would keep everything
	}

	// Static certification threshold over the sample box: the planes and
	// the centroid lie in it, and the scan certifies only points inside it
	// (a point outside the box is outside the sample hull anyway).
	c.box = slices.Grow(c.box[:0], d)[:d]
	box := c.box
	clear(box)
	for _, p := range sample {
		for j := 0; j < d; j++ {
			box[j] = max(box[j], math.Abs(p[j]))
		}
	}
	eps := geom.StaticFilterEps(box)
	if eps <= 0 {
		return false, nil
	}

	// Orient every sample facet so the sample interior is strictly negative,
	// using the sample centroid as the interior witness. Any facet the
	// filter cannot certify against the centroid disables the whole cull —
	// dropping single facets would be unsound.
	c.centroid = slices.Grow(c.centroid[:0], d)[:d]
	centroid := c.centroid
	clear(centroid)
	for _, p := range sample {
		for j := 0; j < d; j++ {
			centroid[j] += p[j]
		}
	}
	for j := range centroid {
		centroid[j] /= float64(len(sample))
	}
	c.scale = slices.Grow(c.scale[:0], d)[:d]
	clear(c.scale)
	for _, p := range sample {
		for j := 0; j < d; j++ {
			c.scale[j] = max(c.scale[j], math.Abs(p[j]-centroid[j]))
		}
	}
	widest := slices.Max(c.scale)
	for j, e := range c.scale {
		sj := math.Ldexp(1, int(math.Round(math.Log2(widest/e))))
		if e == 0 || !(sj > 0) || math.IsInf(sj, 0) {
			sj = 1 // no usable extent along j
		}
		c.scale[j] = sj
	}
	// While orienting, accumulate the inscribed-sphere radius around the
	// centroid in scaled coordinates: r = min over facets of (certified
	// clearance / ||N'||), where N'_j = N_j / S_j is the plane's normal
	// over u = S(x - c). Any point with |u| < 0.999·r satisfies Eval < -Eps
	// on every plane (Cauchy-Schwarz on the exact linear form, with the Eps
	// margin absorbing the evaluation error and the 0.1% shrink absorbing
	// the rounding of the distance and norm computations themselves), so the
	// common deep-interior case costs one squared distance instead of a
	// cell lookup and its plane evaluations.
	c.vp = slices.Grow(c.vp[:0], d)[:d]
	c.planes, c.rows = c.planes[:0], c.rows[:0]
	rIn := math.Inf(1)
	for f := 0; f+d <= len(fverts); f += d {
		for i, v := range fverts[f : f+d] {
			c.vp[i] = sample[v]
		}
		pl := geom.NewFacetPlane(c.vp, eps)
		if !pl.Valid() {
			return false, nil
		}
		s, ok := pl.CertifiedSign(centroid)
		if !ok {
			return false, nil
		}
		if s > 0 {
			for j := 0; j < d; j++ {
				pl.N[j] = -pl.N[j]
			}
			pl.Off = -pl.Off
		}
		norm := 0.0
		for j := 0; j < d; j++ {
			nj := pl.N[j] / c.scale[j]
			norm += nj * nj
		}
		norm = math.Sqrt(norm)
		if clear := -pl.Eval(centroid) - eps; norm > 0 && clear/norm < rIn {
			rIn = clear / norm
		}
		c.planes = append(c.planes, pl)
		if d == 3 {
			c.rows = append(c.rows, [4]float64{pl.N[0], pl.N[1], pl.N[2], pl.Off})
		}
	}
	c.eps, c.r2 = eps, 0
	if rIn > 0 && !math.IsInf(rIn, 1) {
		c.r2 = 0.999 * rIn * 0.999 * rIn
	}
	c.index(sample, fverts, d)
	return true, nil
}

// index builds the cell index over the planes (see cullState), or the
// one-cell fallback when no cap fits.
func (c *cullState) index(sample []geom.Point, fverts []int32, d int) {
	h := len(c.planes)
	if c.r2 <= 0 || !c.facetCaps(sample, fverts, d) {
		c.k, c.halfK = 0, 0
		c.start = append(c.start[:0], 0, int32(h))
		c.list = c.list[:0]
		for f := range h {
			c.list = append(c.list, int32(f))
		}
		return
	}
	k := int(math.Ceil(math.Pow(cellsPerFacet*float64(h)/float64(2*d), 1/float64(d-1))))
	for k > 1 && float64(2*d)*math.Pow(float64(k), float64(d-1)) > maxCells {
		k--
	}
	k = max(k, 1)
	c.cells.build(d, k)
	c.k, c.halfK = k, float64(k)/2
	perFace := 1
	for range d - 1 {
		perFace *= k
	}

	// Two walks over the (cell, plane) pairs: the first counts each cell's
	// planes, the second places them, in facet order within a cell. start
	// [cell] is the fill cursor until every pair is placed; it ends at the
	// cell's end, which is the next cell's start.
	cells := 2 * d * perFace
	c.start = slices.Grow(c.start[:0], cells+1)[:cells+1]
	clear(c.start)
	c.eachPair(h, d, k, perFace, func(cell, f int32) { c.start[cell+1]++ })
	for i := 1; i <= cells; i++ {
		c.start[i] += c.start[i-1]
	}
	c.list = slices.Grow(c.list[:0], int(c.start[cells]))[:c.start[cells]]
	c.eachPair(h, d, k, perFace, func(cell, f int32) {
		c.list[c.start[cell]] = f
		c.start[cell]++
	})
	copy(c.start[1:], c.start[:cells])
	c.start[0] = 0
}

// eachPair calls emit for every (cell, plane) pair of the index, face by
// face for each plane f in order. The cells of face (ax, s) whose caps can
// meet facet f's lie in a box of indices: such a cell's center lies within
// reach (f's radius plus the largest cell radius) of f's center, and along
// each other axis j the directions within reach project into the (ax, j)
// plane within a bounded angle of f's center (bounds). Each cell of the
// box then gets the exact cap test.
func (c *cullState) eachPair(h, d, k, perFace int, emit func(cell, f int32)) {
	var lo, hi, idx [geom.MaxPlaneDim]int
	var axes [geom.MaxPlaneDim]int
	for f := range h {
		a := c.capCtr[f*d : (f+1)*d]
		cosF, sinF := math.Cos(c.capRad[f]), math.Sin(c.capRad[f])
		reach := c.capRad[f] + c.cells.maxRad
		sinReach := math.Sin(reach)
		// A face none of whose cell centers is within reach of f's
		// center is skipped whole.
		cosFace := math.Cos(min(math.Pi, reach+c.cells.face))
		for face := range 2 * d {
			ax, sgn := face/2, 1.0
			if face%2 == 1 {
				sgn = -1
			}
			if sgn*a[ax] < cosFace {
				continue
			}
			nl := 0
			for j := range d {
				if j != ax {
					axes[nl] = j
					nl++
				}
			}
			ok := true
			for l := range nl {
				lo[l], hi[l], ok = c.cells.bounds(a[axes[l]], sgn*a[ax], reach, sinReach)
				if !ok {
					break
				}
			}
			if !ok {
				continue
			}
			copy(idx[:nl], lo[:nl])
			for {
				cell, dot := 0, sgn*a[ax]
				for l := range nl {
					cell = cell*k + idx[l]
					dot += c.cells.tc[idx[l]] * a[axes[l]]
				}
				// angle(center_C, center_f) <= rad_C + rad_f, as cosines.
				if dot*c.cells.inv[cell] >= c.cells.cos[cell]*cosF-c.cells.sin[cell]*sinF {
					emit(int32(face*perFace+cell), int32(f))
				}
				l := nl - 1
				for l >= 0 && idx[l] == hi[l] {
					idx[l] = lo[l]
					l--
				}
				if l < 0 {
					break
				}
				idx[l]++
			}
		}
	}
}

// facetCaps sets every facet's cap: the center is the normalized sum of
// its unit scaled vertex directions from the centroid, the radius the
// largest angle to one of them, plus capMargin. It reports false when a cap
// reaches 90° (or cannot be normalized), so no cap fits.
func (c *cullState) facetCaps(sample []geom.Point, fverts []int32, d int) bool {
	h := len(c.planes)
	c.capCtr = slices.Grow(c.capCtr[:0], h*d)[:h*d]
	c.capRad = slices.Grow(c.capRad[:0], h)[:h]
	var dirs [geom.MaxPlaneDim][geom.MaxPlaneDim]float64
	for f := range h {
		a := c.capCtr[f*d : (f+1)*d]
		clear(a)
		for i, v := range fverts[f*d : (f+1)*d] {
			p := sample[v]
			for j := range d {
				dirs[i][j] = (p[j] - c.centroid[j]) * c.scale[j]
			}
			if !unit(dirs[i][:d]) {
				return false
			}
			for j := range d {
				a[j] += dirs[i][j]
			}
		}
		if !unit(a) {
			return false
		}
		r := 0.0
		for i := range d {
			r = max(r, angle(a, dirs[i][:d]))
		}
		r += capMargin
		if !(r < math.Pi/2) {
			return false
		}
		c.capRad[f] = r
	}
	return true
}

// build sets the face-local cell caps for dimension d and k cells per axis,
// unless they are already those.
func (cc *cellCaps) build(d, k int) {
	if cc.d == d && cc.k == k {
		return
	}
	nl := d - 1
	cc.tc = slices.Grow(cc.tc[:0], k)[:k]
	for i := range k {
		cc.tc[i] = -1 + float64(2*i+1)/float64(k)
	}
	per := 1
	for range nl {
		per *= k
	}
	cc.inv = slices.Grow(cc.inv[:0], per)[:per]
	cc.cos = slices.Grow(cc.cos[:0], per)[:per]
	cc.sin = slices.Grow(cc.sin[:0], per)[:per]
	cc.maxRad, cc.face = 0, 0
	var axis [geom.MaxPlaneDim]float64
	axis[0] = 1
	var ctr, corner [geom.MaxPlaneDim]float64
	var idx [geom.MaxPlaneDim]int
	for cell := range per {
		for l, rest := nl-1, cell; l >= 0; l-- {
			idx[l] = rest % k
			rest /= k
		}
		ctr[0] = 1
		for l := range nl {
			ctr[l+1] = cc.tc[idx[l]]
		}
		cc.inv[cell] = 1 / geom.Point(ctr[:d]).Norm()
		unit(ctr[:d])
		cc.face = max(cc.face, angle(axis[:d], ctr[:d]))
		r := 0.0
		for m := range 1 << nl {
			corner[0] = 1
			for l := range nl {
				corner[l+1] = -1 + float64(2*(idx[l]+m>>l&1))/float64(k)
			}
			unit(corner[:d])
			r = max(r, angle(ctr[:d], corner[:d]))
		}
		cc.cos[cell], cc.sin[cell] = math.Cos(r), math.Sin(r)
		cc.maxRad = max(cc.maxRad, r)
	}
	cc.d, cc.k = d, k
}

// bounds returns the range of cell indices along one face-local axis j
// whose centers can lie within angle reach of the unit direction a, given
// a's component aj along j, its component aAx along the face's (signed)
// axis, and sinReach = sin(reach); or false when no cell center of the face
// can. The directions within reach of a project into the (axis, j) plane at
// angles within delta = asin(sinReach/rho) of a's projection, whose angle
// phi has tan(phi) = aj/aAx and whose length is rho; a cell center's
// projection has tan = tc, inside ±1. So the range is tan(phi ± delta),
// unbounded where phi ± delta passes ±90°, which the sign of the tangent
// sum formula's denominator shows.
func (cc *cellCaps) bounds(aj, aAx, reach, sinReach float64) (lo, hi int, ok bool) {
	rho2 := aj*aj + aAx*aAx
	if reach >= math.Pi/2 || aAx <= 0 || rho2 <= sinReach*sinReach {
		return 0, cc.k - 1, true
	}
	t, td := aj/aAx, sinReach/math.Sqrt(rho2-sinReach*sinReach)
	tlo, thi := -1.0, 1.0
	if den := 1 + t*td; den > 0 {
		tlo = max(tlo, (t-td)/den)
	}
	if den := 1 - t*td; den > 0 {
		thi = min(thi, (t+td)/den)
	}
	if tlo > 1 || thi < -1 {
		return 0, 0, false
	}
	half := float64(cc.k) / 2
	return max(int((tlo+1)*half), 0), min(int((thi+1)*half), cc.k-1), true
}

// unit normalizes v in place and reports whether it had a length to
// normalize.
func unit(v []float64) bool {
	n := geom.Point(v).Norm()
	if !(n > 0) || math.IsInf(n, 0) {
		return false
	}
	for j := range v {
		v[j] /= n
	}
	return true
}

// angle returns the angle between unit vectors a and b from their chord,
// which unlike the arccosine of the dot product stays accurate near 0.
func angle(a, b []float64) float64 {
	ch := 0.0
	for j := range a {
		ch += (a[j] - b[j]) * (a[j] - b[j])
	}
	return 2 * math.Asin(min(1, math.Sqrt(ch)/2))
}

// scan marks keepMask[i] for every point i in [lo, hi) the cull cannot
// certify strictly interior, and returns how many it marked.
func (c *cullState) scan(pts []geom.Point, lo, hi int, keepMask []bool) int {
	if len(c.centroid) == 3 {
		return c.scan3(pts, lo, hi, keepMask)
	}
	return c.scanCells(pts, lo, hi, keepMask)
}

// scanCells is the scan for any dimension: the inscribed sphere, the
// sample box, then one Plane.Eval per plane of the point's cell.
func (c *cullState) scanCells(pts []geom.Point, lo, hi int, keepMask []bool) int {
	d, centroid, scale, box, negEps := len(c.centroid), c.centroid, c.scale, c.box, -c.eps
	var u [geom.MaxPlaneDim]float64
	kept := 0
	for i := lo; i < hi; i++ {
		x := pts[i]
		dist2 := 0.0
		for j := 0; j < d; j++ {
			dx := (x[j] - centroid[j]) * scale[j]
			u[j] = dx
			dist2 += dx * dx
		}
		if dist2 < c.r2 {
			continue // certified deep interior
		}
		keep := false
		for j := 0; j < d; j++ {
			if !(math.Abs(x[j]) <= box[j]) {
				keep = true // outside the sample box
				break
			}
		}
		if !keep {
			cell := 0
			if c.k > 0 {
				ax, m := 0, math.Abs(u[0])
				for j := 1; j < d; j++ {
					if a := math.Abs(u[j]); a > m {
						ax, m = j, a
					}
				}
				cell = 2 * ax
				if u[ax] < 0 {
					cell++
				}
				inv := 1 / m
				for j := 0; j < d; j++ {
					if j != ax {
						cell = cell*c.k + min(int((u[j]*inv+1)*c.halfK), c.k-1)
					}
				}
			}
			for _, pi := range c.list[c.start[cell]:c.start[cell+1]] {
				if c.planes[pi].Eval(x) >= negEps {
					keep = true
					break
				}
			}
		}
		if keep {
			keepMask[i] = true
			kept++
		}
	}
	return kept
}

// scan3 is scanCells for d == 3 over the flat rows, with the distance, the
// cell and the plane evaluations inlined. Both keep the summation order of
// the generic loop and of Plane.Eval's d == 3 case, and find the same cell,
// so the keep mask is bit-identical.
func (c *cullState) scan3(pts []geom.Point, lo, hi int, keepMask []bool) int {
	c0, c1, c2 := c.centroid[0], c.centroid[1], c.centroid[2]
	s0, s1, s2 := c.scale[0], c.scale[1], c.scale[2]
	b0, b1, b2 := c.box[0], c.box[1], c.box[2]
	r2, negEps := c.r2, -c.eps
	k, halfK := c.k, c.halfK
	start, list, rows := c.start, c.list, c.rows
	kept := 0
	for i := lo; i < hi; i++ {
		x := pts[i]
		x0, x1, x2 := x[0], x[1], x[2]
		dx0, dx1, dx2 := (x0-c0)*s0, (x1-c1)*s1, (x2-c2)*s2
		if dx0*dx0+dx1*dx1+dx2*dx2 < r2 {
			continue // certified deep interior
		}
		keep := !(math.Abs(x0) <= b0 && math.Abs(x1) <= b1 && math.Abs(x2) <= b2)
		if !keep {
			cell := 0
			if k > 0 {
				// The face's axis, first largest |u_j| as in scanCells, and
				// the two other axes in increasing order.
				a0, a1, a2 := math.Abs(dx0), math.Abs(dx1), math.Abs(dx2)
				var ua, ub, uc float64
				switch {
				case a1 > a0 && a1 >= a2:
					cell, ua, ub, uc = 2, dx1, dx0, dx2
				case a2 > a0 && a2 > a1:
					cell, ua, ub, uc = 4, dx2, dx0, dx1
				default:
					cell, ua, ub, uc = 0, dx0, dx1, dx2
				}
				if ua < 0 {
					cell++
				}
				inv := 1 / math.Abs(ua)
				cell = (cell*k+min(int((ub*inv+1)*halfK), k-1))*k + min(int((uc*inv+1)*halfK), k-1)
			}
			for _, pi := range list[start[cell]:start[cell+1]] {
				r := &rows[pi]
				if r[0]*x0+r[1]*x1+r[2]*x2-r[3] >= negEps {
					keep = true
					break
				}
			}
		}
		if keep {
			keepMask[i] = true
			kept++
		}
	}
	return kept
}

package delaunay

// This file implements the kernel's batch in-circle filter — the
// conflict.Filter side of the fused merge/filter, mirroring the hulld batch
// filter (DESIGN.md §4.3) over the flat lifted coordinates. The triangle's
// negated lifted plane sits in registers and each candidate costs one
// 3-term dot product; candidates the per-facet certificate cannot decide
// collect into a small stack sidecar and resolve through the exact
// geom.InCircle predicate after the loop, then merge back in position, so
// the survivor list is byte-identical to the pointwise path (asserted by
// TestFilterMergeMatchesPointwise).

// uncertainCap is the stack capacity of the per-batch uncertain sidecar.
const uncertainCap = 24

// triFilter binds the engine and one triangle as the batch filter of that
// triangle's in-circle predicate. Passed by value through the generic
// merge-filter entry points, so the hot path performs no interface boxing.
type triFilter struct {
	e *dEngine
	t *Triangle
}

// FilterRange implements conflict.Filter.
func (tf triFilter) FilterRange(from, to int32, dst []int32) []int32 {
	return tf.e.filterConflictRange(tf.t, from, to, dst)
}

// FilterMerge implements conflict.Filter.
func (tf triFilter) FilterMerge(c1, c2 []int32, drop int32, dst []int32) []int32 {
	return tf.e.filterConflictMerge(tf.t, c1, c2, drop, dst)
}

// filterConflictRange appends to dst the candidates among [from, to)
// strictly inside t's circumcircle, in order, with the pointwise path's
// counter totals (tests counted per batch, fallbacks per sidecar entry),
// streaming the lifted rows sequentially.
func (e *dEngine) filterConflictRange(t *Triangle, from, to int32, dst []int32) []int32 {
	if to <= from {
		return dst
	}
	e.rec.VTests.Add(uint64(from), int64(to-from))
	if !t.plane.Valid() {
		for v := from; v < to; v++ {
			if e.exactConflict(v, t) {
				dst = append(dst, v)
			}
		}
		return dst
	}
	base := len(dst)
	var ubuf [uncertainCap]int32
	uncertain := ubuf[:0]
	n0, n1, n2 := t.plane.N[0], t.plane.N[1], t.plane.N[2]
	off, eps := t.plane.Off, t.plane.Eps
	c := e.lift
	o := int(from) * 3
	for v := from; v < to; v++ {
		x := c[o : o+3 : o+3]
		o += 3
		s := n0*x[0] + n1*x[1] + n2*x[2] - off
		if s > eps {
			dst = append(dst, v)
		} else if s >= -eps {
			uncertain = append(uncertain, v)
		}
	}
	if len(uncertain) == 0 {
		return dst
	}
	return e.resolveUncertain(t, dst, base, uncertain)
}

// filterConflictMerge fuses the ascending merge of two conflict lists with
// the in-circle classification: each candidate is tested the moment the
// two-pointer merge produces it, so the merged run is never materialized.
func (e *dEngine) filterConflictMerge(t *Triangle, c1, c2 []int32, drop int32, dst []int32) []int32 {
	if len(c1)+len(c2) == 0 {
		return dst
	}
	// Any shard key works for the per-batch counter adds: the key only
	// selects a stripe and Load sums all stripes.
	var key uint64
	if len(c1) > 0 {
		key = uint64(c1[0])
	} else {
		key = uint64(c2[0])
	}
	var tested int64
	if !t.plane.Valid() {
		i, j := 0, 0
		for i < len(c1) && j < len(c2) {
			v := c1[i]
			if v < c2[j] {
				i++
			} else if v > c2[j] {
				v = c2[j]
				j++
			} else {
				i++
				j++
			}
			if v == drop {
				continue
			}
			tested++
			if e.exactConflict(v, t) {
				dst = append(dst, v)
			}
		}
		tail := c1[i:]
		if j < len(c2) {
			tail = c2[j:]
		}
		for _, v := range tail {
			if v == drop {
				continue
			}
			tested++
			if e.exactConflict(v, t) {
				dst = append(dst, v)
			}
		}
		if tested > 0 {
			e.rec.VTests.Add(key, tested)
		}
		return dst
	}
	base := len(dst)
	var ubuf [uncertainCap]int32
	uncertain := ubuf[:0]
	n0, n1, n2 := t.plane.N[0], t.plane.N[1], t.plane.N[2]
	off, eps := t.plane.Off, t.plane.Eps
	c := e.lift
	i, j := 0, 0
	for i < len(c1) && j < len(c2) {
		v := c1[i]
		if v < c2[j] {
			i++
		} else if v > c2[j] {
			v = c2[j]
			j++
		} else {
			i++
			j++
		}
		if v == drop {
			continue
		}
		tested++
		o := int(v) * 3
		x := c[o : o+3 : o+3]
		s := n0*x[0] + n1*x[1] + n2*x[2] - off
		if s > eps {
			dst = append(dst, v)
		} else if s >= -eps {
			uncertain = append(uncertain, v)
		}
	}
	tail := c1[i:]
	if j < len(c2) {
		tail = c2[j:]
	}
	for _, v := range tail {
		if v == drop {
			continue
		}
		tested++
		o := int(v) * 3
		x := c[o : o+3 : o+3]
		s := n0*x[0] + n1*x[1] + n2*x[2] - off
		if s > eps {
			dst = append(dst, v)
		} else if s >= -eps {
			uncertain = append(uncertain, v)
		}
	}
	if tested > 0 {
		e.rec.VTests.Add(key, tested)
	}
	if len(uncertain) == 0 {
		return dst
	}
	return e.resolveUncertain(t, dst, base, uncertain)
}

// resolveUncertain decides a batch's filter-uncertain candidates with the
// exact predicate and splices the survivors back into dst[base:]: the
// certain and uncertain survivors are disjoint ascending subsequences of
// one candidate run, so a backward merge by value restores order in place.
func (e *dEngine) resolveUncertain(t *Triangle, dst []int32, base int, uncertain []int32) []int32 {
	e.rec.Fallbacks.Add(uint64(uncertain[0]), int64(len(uncertain)))
	kept := uncertain[:0]
	for _, v := range uncertain {
		if e.exactConflict(v, t) {
			kept = append(kept, v)
		}
	}
	if len(kept) == 0 {
		return dst
	}
	i := len(dst) - 1
	dst = append(dst, kept...)
	w := len(dst) - 1
	for j := len(kept) - 1; j >= 0; {
		if i >= base && dst[i] > kept[j] {
			dst[w] = dst[i]
			i--
		} else {
			dst[w] = kept[j]
			j--
		}
		w--
	}
	return dst
}

package engine

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"parhull/internal/core"
	"parhull/internal/faultinject"
	"parhull/internal/sched"
)

// ConflictScanner is an optional batch extension of core.Space — the
// configuration-space analogue of the kernels' batch visibility filter
// (conflict.Filter). FirstConflict returns the smallest index r in
// [0, len(order)) with InConflict(c, order[r]), or len(order) when no object
// of order conflicts with configuration c. Implementations hoist the
// per-configuration decode (defining-set lookup, coordinate loads) out of
// the per-object loop, which the InConflict signature cannot express.
// SpaceRounds uses it when present and falls back to scanning InConflict
// otherwise, so spaces without a batch scan keep working.
type ConflictScanner interface {
	FirstConflict(c int, order []int) int
}

// PeakEnumerator is an optional extension of core.Space that replaces
// SpaceRounds' upfront O(NumConfigs) peak bucketing with demand-driven
// enumeration. EnumeratePeak(x, below, emit) must call emit(c) exactly once
// for every configuration c such that x is in Defining(c) and below(o) holds
// for every other defining object o of c — the configurations whose defining
// set "peaks" at x when below selects the earlier-inserted objects.
//
// Contract:
//
//   - A configuration with an empty defining set can never be emitted, so a
//     space containing such configurations (e.g. trapezoid's outer box cell)
//     must NOT implement this interface; the eager bucketing handles it.
//   - EnumeratePeak must be safe for concurrent use: SpaceRounds calls it
//     from parallel round tasks with distinct x.
//   - below is pure and cheap (an array lookup); implementations may call it
//     O(NumObjects) times.
type PeakEnumerator interface {
	EnumeratePeak(x int, below func(o int) bool, emit func(c int))
}

// SpaceResult is the outcome of SpaceRounds.
type SpaceResult struct {
	// Alive is the final active set T(order): every configuration whose
	// defining objects all appear in order and whose conflict set avoids it.
	// Sorted ascending by configuration index.
	Alive []int
	// Created counts configurations ever activated (the |Added| analogue of
	// core.RunGeneric, but without the brute-force search's transient extras:
	// this engine creates exactly the configurations that enter T at some
	// prefix).
	Created int
	// Rounds is the number of synchronous rounds executed — the recursion
	// depth of the dependence structure under the Theorem 5.4 schedule.
	Rounds int
	// Widths[r] is the number of ready tasks in round r+1.
	Widths []int
}

// SpaceRounds runs the parallel incremental construction over an arbitrary
// enumerated configuration space under the round-synchronous schedule,
// inserting the objects of order (a duplicate-free subset of the space's
// objects, base prefix first) in index order. It is the generic route onto
// the rounds schedule: a space needs no kernel, only its core.Space
// enumeration — this is how degenerate 3D inputs get a real engine through
// the corner space of Section 6 (see parhull.Hull3DDegenerate). Its tasks
// run on the executor's round loop (sched.Executor.Rounds), the one Rounds
// runs on.
//
// Unlike core.RunGeneric — the brute-force Algorithm 1 validator, which
// rediscovers support sets by subset search and rescans the full active set
// every round — this engine exploits the structure the paper's analysis
// rests on:
//
//   - A configuration's fate is decided by one number: the first object (in
//     insertion order) of its conflict set. The configuration activates when
//     its last defining object arrives (provided no earlier object conflicts)
//     and dies exactly when that first conflicting object does. One ascending
//     scan with early exit computes both.
//   - When a pending configuration's pivot x is claimed (first claimant per
//     object, the same one-loser discipline as the ridge table), the claimant
//     creates every configuration whose defining set peaks at x. The peak
//     buckets come from a compact two-pass CSR layout, or — when the space
//     implements PeakEnumerator — on demand, with no upfront pass over the
//     configuration universe at all.
//
// Completeness of claiming: if any configuration activates when object x is
// inserted, some configuration active just before x has x at the head of its
// conflict set, so a task with pivot x exists and the activation is not
// missed. For spaces with the support property (Definition 3.3) that
// configuration is a support member; for trapezoids — whose support sets are
// unbounded in size, the paper's Section 3 caveat — it is any cell of the
// decomposition overlapping the new cell's region, which must have been
// destroyed by (first-conflicting with) x for the region to change. Large
// supports cost work and depth, never completeness.
//
// A non-nil ctx cancels the run cooperatively at task granularity: it
// returns ctx.Err() with every worker joined. A panic escaping the space's
// callbacks inside a round task is contained into a typed
// *sched.PanicError. inj arms deterministic fault injection (tests and the
// soak driver only; nil in production) at two sites: SiteScanBatch counts
// one visit per configuration conflict scan, and SiteSpacePeak one per
// claimed pivot inside the round tasks. A panic armed on a scan reached
// from the base-candidate loop unwinds to the caller (the public layer's
// guard).
func SpaceRounds(ctx context.Context, inj *faultinject.Injector, s core.Space, order []int) (*SpaceResult, error) {
	n := s.NumObjects()
	nb := s.BaseSize()
	if len(order) < nb {
		return nil, fmt.Errorf("engine: need at least base size %d objects, got %d", nb, len(order))
	}
	// rank[o] is o's insertion position, or -1 for objects not inserted.
	rank := make([]int32, n)
	for i := range rank {
		rank[i] = -1
	}
	for i, o := range order {
		if o < 0 || o >= n {
			return nil, fmt.Errorf("engine: object %d out of range [0,%d)", o, n)
		}
		if rank[o] >= 0 {
			return nil, fmt.Errorf("engine: object %d appears twice in order", o)
		}
		rank[o] = int32(i)
	}

	// firstConflict returns the insertion rank of the earliest inserted
	// object conflicting with configuration c, or NoPivot if none does.
	// Spaces implementing ConflictScanner answer it in one batch scan
	// (per-configuration setup hoisted out of the per-object loop); the
	// closure over InConflict is the shim for spaces without one.
	firstConflict := func(c int) int32 {
		inj.Visit(faultinject.SiteScanBatch)
		for r, o := range order {
			if s.InConflict(c, o) {
				return int32(r)
			}
		}
		return NoPivot
	}
	if sc, ok := s.(ConflictScanner); ok {
		firstConflict = func(c int) int32 {
			inj.Visit(faultinject.SiteScanBatch)
			if r := sc.FirstConflict(c, order); r < len(order) {
				return int32(r)
			}
			return NoPivot
		}
	}

	// forPeak visits every constructible configuration whose defining set
	// completes at insertion rank x, and baseCand holds the ones completing
	// within the base prefix. Two strategies:
	//
	//   - PeakEnumerator spaces answer on demand: nothing proportional to
	//     NumConfigs is ever allocated or scanned.
	//   - Otherwise one pass over the configurations counts bucket sizes and a
	//     second fills a flat CSR array (the peak is recomputed rather than
	//     staged in an O(NumConfigs) temporary; Defining is a cheap decode).
	var forPeak func(x int32, visit func(c int32))
	var baseCand []int32
	if pe, ok := s.(PeakEnumerator); ok {
		forPeak = func(x int32, visit func(c int32)) {
			pe.EnumeratePeak(order[x], func(o int) bool {
				r := rank[o]
				return r >= 0 && r < x
			}, func(c int) { visit(int32(c)) })
		}
		// Base candidates peak at one of the base positions. Each
		// configuration has a single peak, so the collection is duplicate-free.
		for i := int32(0); i < int32(nb); i++ {
			forPeak(i, func(c int32) { baseCand = append(baseCand, c) })
		}
	} else {
		m := s.NumConfigs()
		peakRank := func(c int) (int32, bool) {
			peak := int32(0) // an empty defining set completes within the base
			for _, o := range s.Defining(c) {
				r := rank[o]
				if r < 0 {
					return 0, false // a defining object is never inserted
				}
				if r > peak {
					peak = r
				}
			}
			return peak, true
		}
		off := make([]int32, len(order)+1)
		for c := 0; c < m; c++ {
			if p, ok := peakRank(c); ok {
				off[p+1]++
			}
		}
		for i := 1; i <= len(order); i++ {
			off[i] += off[i-1]
		}
		buf := make([]int32, off[len(order)])
		cur := append([]int32(nil), off[:len(order)]...)
		for c := 0; c < m; c++ {
			if p, ok := peakRank(c); ok {
				buf[cur[p]] = int32(c)
				cur[p]++
			}
		}
		forPeak = func(x int32, visit func(c int32)) {
			for _, c := range buf[off[x]:off[x+1]] {
				visit(c)
			}
		}
		baseCand = buf[:off[nb]]
	}

	claimed := make([]atomic.Bool, len(order))
	var nCreated atomic.Int64
	var aliveMu sync.Mutex
	var alive []int

	// create activates c at activation rank at (its defining peak): c enters
	// T iff no inserted object of rank < at conflicts with it. It returns the
	// pivot rank, or NoPivot for a final configuration, and false if c never
	// activates. Final configurations are collected immediately — no
	// per-configuration state array survives the run.
	create := func(c int32, at int32) (int32, bool) {
		p := firstConflict(int(c))
		if p < at {
			return 0, false // killed before its defining set completes
		}
		nCreated.Add(1)
		if p == NoPivot {
			aliveMu.Lock()
			alive = append(alive, int(c))
			aliveMu.Unlock()
		}
		return p, true
	}

	type task struct {
		c     int32 // pending configuration
		pivot int32 // rank of the first conflicting object
	}
	var initial []task
	for _, c := range baseCand {
		p, ok := create(c, int32(nb))
		if !ok {
			continue
		}
		if p != NoPivot {
			initial = append(initial, task{c: c, pivot: p})
		}
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	var f failure
	var x *sched.Executor[task]
	x = sched.NewExecutor(0, func(w int, tk task) {
		if f.failed.Load() {
			return
		}
		// tk.c dies here: its pivot's insertion kills it (one task per
		// configuration, so no double counting). The first task to claim the
		// pivot performs the insertion's creations; each configuration has
		// exactly one peak rank and each rank is claimed once, so every
		// configuration is created at most once. A created configuration
		// with a conflict is a task of the next round: Fork defers it.
		p := tk.pivot
		if !claimed[p].CompareAndSwap(false, true) {
			return
		}
		inj.Visit(faultinject.SiteSpacePeak)
		forPeak(p, func(c int32) {
			q, ok := create(c, p)
			if ok && q != NoPivot {
				x.Fork(w, task{c: c, pivot: q})
			}
		})
	})
	stop := watch(ctx, &f)
	widths := x.Rounds(initial, func(int) bool { return !f.failed.Load() })
	stop()
	x.Close()
	if err := x.Err(); err != nil {
		f.fail(err)
	}
	if f.err != nil {
		return nil, f.err
	}

	sort.Ints(alive)
	return &SpaceResult{Alive: alive, Created: int(nCreated.Load()), Rounds: len(widths), Widths: widths}, nil
}

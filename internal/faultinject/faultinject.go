// Package faultinject provides seeded, deterministic fault-injection hooks
// for the parallel hull engines: scheduled panics at ridge-processing
// boundaries, forced capacity failures in the fixed-size ridge tables, and
// artificial delays that perturb the work-stealing schedule.
//
// The hooks exist to drive the fault-containment stress tests: Theorem 5.5
// guarantees the facet output is schedule-independent, so a run perturbed by
// injected delays must produce the exact facet multiset of a clean run, and
// a run hit by an injected panic or capacity failure must surface a typed
// error with the worker pool fully quiesced — never a crash.
//
// Production builds pass a nil *Injector everywhere: every hook is nil-safe
// and reduces to a single pointer comparison, so the instrumented hot paths
// pay (almost) nothing when injection is off. Determinism: each site carries
// an atomic visit counter, and every armed fault names the exact visit at
// which it fires, so for a fixed arming exactly one fault fires per site
// regardless of how the scheduler interleaves the visits. Delay durations are
// derived from the seed and the visit number (splitmix64), not from a shared
// RNG, so they too are schedule-independent.
package faultinject

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"
)

// Site names an instrumented location in the engine.
type Site uint8

const (
	// SiteRidgeStep is the ProcessRidge boundary of the parallel and
	// round-synchronous schedules: one visit per chain step.
	SiteRidgeStep Site = iota
	// SiteMapInsert is the fixed-capacity ridge-table InsertAndSet
	// (Algorithms 4/5): one visit per insertion attempt.
	SiteMapInsert
	// SiteSeqInsert is the sequential engine's per-point insertion loop.
	SiteSeqInsert
	// SitePreHullStage is the pre-hull reduction's stage boundary: one visit
	// before the interior cull and one before the block sub-hull loop.
	SitePreHullStage
	// SitePreHullBlock is the pre-hull block loop: one visit per block body.
	SitePreHullBlock
	// SiteScanBatch is a batch conflict scan: one visit per batch filter call
	// of a hull kernel (conflict.PlaneFilter's FilterRange and FilterMerge)
	// or per FirstConflict scan of a configuration space.
	SiteScanBatch
	// SiteBuilderRewind is the Builder's retained-state rewind at the start
	// of the next construction: one visit per reused build.
	SiteBuilderRewind
	// SiteSpacePeak is SpaceRounds' peak processing: one visit per claimed
	// pivot, inside the round task, before its creations run.
	SiteSpacePeak
	numSites
)

// NumSites is the number of instrumented sites — the exclusive upper bound
// of the Site enum, for callers (the soak driver) that sample sites.
const NumSites = int(numSites)

// String names the site for error messages.
func (s Site) String() string {
	switch s {
	case SiteRidgeStep:
		return "ridge-step"
	case SiteMapInsert:
		return "map-insert"
	case SiteSeqInsert:
		return "seq-insert"
	case SitePreHullStage:
		return "prehull-stage"
	case SitePreHullBlock:
		return "prehull-block"
	case SiteScanBatch:
		return "scan-batch"
	case SiteBuilderRewind:
		return "builder-rewind"
	case SiteSpacePeak:
		return "space-peak"
	default:
		return fmt.Sprintf("site(%d)", uint8(s))
	}
}

// Panic is the value thrown by a Visit whose site is armed with PanicAt.
// The scheduler's containment layer recovers it into a typed error; stress
// tests assert it round-trips intact.
type Panic struct {
	Site  Site
	Visit int64
}

func (p Panic) String() string {
	return fmt.Sprintf("faultinject: scheduled panic at %v visit %d", p.Site, p.Visit)
}

// arm is the per-site fault schedule. The visit counter is the only field
// mutated after arming, so concurrent Visit/Fail calls race only on it.
type arm struct {
	visits     atomic.Int64
	fired      atomic.Int64 // injected panics delivered (observability)
	failed     atomic.Bool  // the one-shot Fail already delivered
	panicAt    int64        // 1-based visit that panics; 0 = off
	failAt     int64        // 1-based visit that reports failure; 0 = off
	delayEvery int64        // every k-th visit sleeps; 0 = off
	maxDelay   time.Duration
}

// Injector is one deterministic fault schedule. Arm it before handing it to
// an engine; arming is not synchronized with visits.
type Injector struct {
	seed uint64
	arms [numSites]arm
}

// New returns an Injector with no faults armed. seed drives the
// pseudo-random (but schedule-independent) delay durations.
func New(seed int64) *Injector {
	return &Injector{seed: uint64(seed)*0x9e3779b97f4a7c15 + 0x1}
}

// PanicAt arms site s to panic (with a Panic value) on its n-th visit
// (1-based). Exactly one visit fires regardless of scheduling.
func (in *Injector) PanicAt(s Site, n int64) *Injector {
	in.arms[s].panicAt = n
	return in
}

// FailAt arms site s to report one injected failure on its n-th visit
// (1-based): the visit's Fail call returns true exactly once.
func (in *Injector) FailAt(s Site, n int64) *Injector {
	in.arms[s].failAt = n
	return in
}

// DelayEvery arms site s to stall every k-th visit for a seed-derived
// duration in (0, max] (a max <= 0 yields runtime.Gosched instead of a
// sleep). Delays perturb the steal schedule without changing any outcome.
func (in *Injector) DelayEvery(s Site, k int64, max time.Duration) *Injector {
	in.arms[s].delayEvery = k
	in.arms[s].maxDelay = max
	return in
}

// Visit is the generic hook: it counts the visit, applies any armed delay,
// and throws the armed Panic when this is the named visit. Nil-safe.
func (in *Injector) Visit(s Site) {
	if in == nil {
		return
	}
	a := &in.arms[s]
	n := a.visits.Add(1)
	if a.delayEvery > 0 && n%a.delayEvery == 0 {
		if a.maxDelay <= 0 {
			runtime.Gosched()
		} else {
			time.Sleep(time.Duration(splitmix(in.seed^uint64(n))%uint64(a.maxDelay)) + 1)
		}
	}
	if a.panicAt != 0 && n == a.panicAt {
		a.fired.Add(1)
		panic(Panic{Site: s, Visit: n})
	}
}

// Fail reports whether this visit is the armed failure of site s (true
// exactly once per arming); it also counts the visit and applies delays, so
// a site needs only one hook call. Nil-safe.
func (in *Injector) Fail(s Site) bool {
	if in == nil {
		return false
	}
	a := &in.arms[s]
	// Visit counts, delays, and may panic if the site is also panic-armed.
	in.Visit(s)
	if a.failAt != 0 && a.visits.Load() >= a.failAt && a.failed.CompareAndSwap(false, true) {
		return true
	}
	return false
}

// Visits reports how many times site s was visited (tests).
func (in *Injector) Visits(s Site) int64 {
	if in == nil {
		return 0
	}
	return in.arms[s].visits.Load()
}

// Fired reports how many injected faults (panics or one-shot failures) site
// s delivered (tests).
func (in *Injector) Fired(s Site) int64 {
	if in == nil {
		return 0
	}
	n := in.arms[s].fired.Load()
	if in.arms[s].failed.Load() {
		n++
	}
	return n
}

// splitmix is the splitmix64 finalizer: a stateless mix of seed and visit
// number into a uniform-ish 64-bit word.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

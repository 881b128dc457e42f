package parhull

import (
	"context"
	"errors"
	"fmt"

	"parhull/internal/circles"
	"parhull/internal/conmap"
	"parhull/internal/corner"
	"parhull/internal/delaunay"
	"parhull/internal/geom"
	"parhull/internal/halfspace"
	"parhull/internal/hull2d"
	"parhull/internal/hulld"
	"parhull/internal/sched"
	"parhull/internal/trapezoid"
)

// The public error surface. Every error returned by this package's API
// matches at most one of these sentinels under errors.Is; the wrapped chain
// keeps the engine-level detail (which predicate failed, which table filled,
// which worker panicked). Internal sentinel types never escape unwrapped.
var (
	// ErrDegenerate reports input the selected engine cannot handle: fewer
	// points than the base simplex, collinear/coplanar/affinely-dependent
	// point sets for the general-position engines (Section 5), or inputs
	// beyond even the corner space of Section 6 (all points collinear, all
	// points coplanar).
	ErrDegenerate = errors.New("parhull: degenerate input")
	// ErrBadCoordinate reports a NaN or infinite input coordinate.
	ErrBadCoordinate = errors.New("parhull: bad coordinate")
	// ErrCapacity reports that a fixed-capacity ridge table (MapCAS/MapTAS)
	// ran out of slots and the degradation ladder was disabled
	// (Options.NoMapFallback) or itself exhausted. With the ladder enabled
	// this error is handled internally: the run retries with a doubled table
	// and finally falls back to MapSharded (see Stats.CapacityRetries and
	// Stats.MapFallback).
	ErrCapacity = errors.New("parhull: ridge table capacity exhausted")
	// ErrCanceled reports that Options.Context was canceled or timed out
	// before the construction finished. errors.Is also matches the original
	// context.Canceled / context.DeadlineExceeded, which stay in the chain.
	ErrCanceled = errors.New("parhull: construction canceled")
	// ErrBadOption reports an invalid Options field (e.g. a negative
	// MapCapacity) or input of the wrong dimension: d < 2, points of mixed
	// dimension, or a dimension the entry point does not take.
	ErrBadOption = errors.New("parhull: invalid option")
)

// wrapErr maps an engine-level error onto the public sentinel it belongs to,
// keeping the original chain intact (errors.Is matches both the public and
// the internal form). Unknown errors pass through unchanged.
func wrapErr(err error) error {
	if err == nil {
		return nil
	}
	switch {
	case errors.Is(err, ErrDegenerate), errors.Is(err, ErrBadCoordinate),
		errors.Is(err, ErrCapacity), errors.Is(err, ErrCanceled), errors.Is(err, ErrBadOption):
		return err // already public (a re-wrapped ladder retry, say)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	case errors.Is(err, geom.ErrBadCoordinate):
		return fmt.Errorf("%w: %w", ErrBadCoordinate, err)
	case errors.Is(err, geom.ErrBadDimension):
		return fmt.Errorf("%w: %w", ErrBadOption, err)
	case errors.Is(err, conmap.ErrCapacity):
		return fmt.Errorf("%w: %w", ErrCapacity, err)
	case errors.Is(err, hull2d.ErrDegenerate), errors.Is(err, hulld.ErrDegenerate),
		errors.Is(err, delaunay.ErrDegenerate), errors.Is(err, corner.ErrDegenerate),
		errors.Is(err, circles.ErrDegenerate), errors.Is(err, halfspace.ErrDegenerate),
		errors.Is(err, trapezoid.ErrDegenerate):
		return fmt.Errorf("%w: %w", ErrDegenerate, err)
	}
	return err
}

// guard is deferred by every public entry point: a panic that escapes the
// engines' own containment (or fires on the calling goroutine, outside any
// worker pool) is converted into an error instead of crashing the caller.
// The contained panic's stack survives in the error text.
func guard(errp *error) {
	if r := recover(); r != nil {
		*errp = fmt.Errorf("parhull: contained panic: %w", sched.AsError(r))
	}
}

// validate checks the Options fields that can be statically wrong.
func (o *Options) validate() error {
	if o == nil {
		return nil
	}
	if o.Engine < EngineParallel || o.Engine > EngineRounds {
		return fmt.Errorf("%w: unknown Engine %d", ErrBadOption, o.Engine)
	}
	if o.MapCapacity < 0 {
		return fmt.Errorf("%w: MapCapacity %d is negative", ErrBadOption, o.MapCapacity)
	}
	if o.Workers < 0 {
		return fmt.Errorf("%w: Workers %d is negative", ErrBadOption, o.Workers)
	}
	if o.PreHull < PreHullAuto || o.PreHull > PreHullOff {
		return fmt.Errorf("%w: unknown PreHull mode %d", ErrBadOption, o.PreHull)
	}
	return nil
}

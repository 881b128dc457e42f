package sched

import (
	"fmt"
	"runtime/debug"
)

// PanicError is a panic contained by one of this package's execution
// substrates (Executor worker, ParallelFor body): the typed form the engines
// propagate instead of crashing the process. Worker is the pool worker id
// (-1 when the panic happened outside a fixed pool), Task a best-effort
// rendering of the task being executed (empty for closures), and Stack the
// goroutine stack captured at recovery.
type PanicError struct {
	Worker int
	Task   string
	Value  any
	Stack  []byte
}

// Error implements error. The stack is included: a contained panic is a bug
// report, and by the time it surfaces the goroutine that produced it is gone.
func (e *PanicError) Error() string {
	where := "worker"
	if e.Worker < 0 {
		where = "goroutine"
	}
	msg := fmt.Sprintf("sched: panic in %s %d: %v", where, e.Worker, e.Value)
	if e.Task != "" {
		msg += fmt.Sprintf(" (task %s)", e.Task)
	}
	if len(e.Stack) > 0 {
		msg += "\n" + string(e.Stack)
	}
	return msg
}

// Unwrap exposes a panic value that is itself an error, so errors.Is/As see
// through containment — e.g. a ridge-table exhaustion panic carrying
// conmap.ErrCapacity still matches the capacity sentinel after recovery,
// which is what lets the degradation ladder retry on it.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// asPanicError wraps a recovered value, passing through values that are
// already contained (a panic can cross substrate layers: a ParallelFor body
// inside an Executor task) so the innermost capture's context survives.
func asPanicError(worker int, task string, r any) *PanicError {
	if pe, ok := r.(*PanicError); ok {
		return pe
	}
	return &PanicError{Worker: worker, Task: task, Value: r, Stack: debug.Stack()}
}

// AsError converts a value recovered by a caller's own recover() into the
// same *PanicError the substrates produce — the exported form of the
// containment conversion, used by the public API's top-level guards.
func AsError(r any) error { return asPanicError(-1, "", r) }

// Recovered runs fn, converting a panic into a *PanicError instead of
// unwinding further. It is the containment shim for a construction that runs
// on the calling goroutine (the pre-hull's sample hull); the parallel
// schedules run every step on an Executor worker instead.
func Recovered(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = asPanicError(-1, "", r)
		}
	}()
	fn()
	return nil
}

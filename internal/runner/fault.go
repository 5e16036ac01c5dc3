package runner

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime/debug"
	"time"

	"repro/internal/telemetry"
)

// CellError is the typed failure of one cell attempt: which cell failed,
// on which attempt (1-based), why, and — when the failure was a recovered
// panic — the goroutine stack captured at the recovery point. Every cell
// failure the runner reports is a *CellError; Unwrap exposes the cause so
// errors.Is/As see through it (context.DeadlineExceeded for deadline
// overruns, the recovered panic value wrapped in a PanicError, the cell's
// own error otherwise).
type CellError struct {
	// Key is the failed cell's key.
	Key string
	// Attempt is the 1-based attempt number that produced the error.
	Attempt int
	// Cause is the underlying failure.
	Cause error
	// Stack is the goroutine stack at the recovery point; non-empty only
	// when the attempt panicked.
	Stack []byte
}

// Error renders the cell failure with its key and attempt. A panicking
// attempt already carries the "panic:" prefix through its PanicError
// cause.
func (e *CellError) Error() string {
	return fmt.Sprintf("cell %s (attempt %d): %v", e.Key, e.Attempt, e.Cause)
}

// Unwrap exposes the cause.
func (e *CellError) Unwrap() error { return e.Cause }

// PanicError is the cause recorded when a cell attempt panicked: the
// recovered value, preserved so tests and reports can match on it.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
}

// Error renders the panic value.
func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// transientError marks an error as transient: worth retrying under
// Options.MaxRetries. The simulation itself is deterministic, so a cell
// that failed will fail again — transience only arises from the
// environment (cache I/O, injected faults), and those are the only
// errors the retry loop spends attempts on.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// Transient wraps err so IsTransient reports true; nil stays nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient reports whether err (or anything it wraps) was marked with
// Transient.
func IsTransient(err error) bool {
	var t *transientError
	return errors.As(err, &t)
}

// Hook is the fault-injection surface of the runner: a build-tag-free
// seam the internal/faultinject package implements so tests can prove
// isolation, retry and resume against real execution machinery. A nil
// hook costs one comparison per attempt.
//
// Both methods run on the worker goroutine executing the cell.
// BeforeAttempt runs inside the panic-isolation scope with the attempt's
// context, so an injected panic is recovered into a CellError and an
// injected block observes the cell deadline exactly as a hung cell
// would; a returned error fails the attempt without running the cell.
// AfterCell runs once per cell after its last attempt, before the result
// is published — the crash-between-cells injection point.
type Hook interface {
	BeforeAttempt(ctx context.Context, key string, attempt int) error
	AfterCell(key string, err error)
}

// DefaultRetryBackoff is the base delay of the retry backoff when
// Options.RetryBackoff is unset.
const DefaultRetryBackoff = 10 * time.Millisecond

// retryDelay computes the deterministic backoff before retry attempt
// (the attempt number about to run, 2-based): base doubled per prior
// failed attempt, plus a jitter in [0, base) derived by hashing the cell
// key and the attempt. The delay is a pure function of its inputs, so a
// retried campaign schedules identically run to run.
func retryDelay(base time.Duration, key string, attempt int) time.Duration {
	if base <= 0 {
		base = DefaultRetryBackoff
	}
	d := base << (attempt - 2)
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", key, attempt)
	return d + time.Duration(h.Sum64()%uint64(base))
}

// guardedDo runs one attempt of the cell body with panic isolation: a
// panic in do (or in the hook's BeforeAttempt) is recovered into a
// *CellError carrying the panic value and the captured stack.
func guardedDo[T any](ctx context.Context, key string, attempt int, hook Hook,
	do func(context.Context) (T, error)) (val T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &CellError{Key: key, Attempt: attempt, Cause: &PanicError{Value: r}, Stack: debug.Stack()}
		}
	}()
	if hook != nil {
		if err := hook.BeforeAttempt(ctx, key, attempt); err != nil {
			return val, err
		}
	}
	return do(ctx)
}

// attemptResult carries one attempt's outcome across the deadline
// goroutine boundary.
type attemptResult[T any] struct {
	val T
	err error
}

// runAttempt executes one attempt, enforcing Options.CellTimeout when
// set. With a timeout the body runs on its own goroutine and the worker
// abandons it at the deadline: the runner cannot interrupt a cell that
// ignores its context (a hung scenario, an injected delay), so the
// abandoned goroutine is left to notice ctx.Done() and exit on its own
// while the campaign moves on. Without a timeout the body runs inline —
// the happy path adds one deferred recover and nothing else.
func runAttempt[T any](ctx context.Context, opts Options, cell Cell[T], attempt int,
	do func(context.Context) (T, error)) (T, error) {
	key := cell.Key
	ctx, span := opts.Telemetry.StartSpan(ctx, telemetry.CatRunner, "attempt")
	if span != nil {
		span.Arg("cell", key).Arg("attempt", attempt)
	}
	defer span.End()
	if opts.CellTimeout <= 0 {
		return guardedDo(ctx, key, attempt, opts.Hook, do)
	}
	actx, cancel := context.WithTimeout(ctx, opts.CellTimeout)
	defer cancel()
	ch := make(chan attemptResult[T], 1)
	go func() {
		var r attemptResult[T]
		r.val, r.err = guardedDo(actx, key, attempt, opts.Hook, do)
		ch <- r
	}()
	select {
	case r := <-ch:
		return r.val, r.err
	case <-actx.Done():
		var zero T
		return zero, actx.Err()
	}
}

// runCell executes one cell to completion: attempt, classify, retry
// transient failures up to Options.MaxRetries with deterministic
// backoff, and wrap any final failure as a *CellError. Deadline overruns
// and panics are not retried — the simulation is deterministic, so they
// would recur; only errors marked Transient (injected faults, cache
// I/O) spend retry attempts.
func runCell[T any](ctx context.Context, opts Options, cell Cell[T]) (T, error) {
	var val T
	var err error
	for attempt := 1; ; attempt++ {
		val, err = runAttempt(ctx, opts, cell, attempt, cell.Do)
		if err == nil {
			break
		}
		if ce := (*CellError)(nil); !errors.As(err, &ce) {
			err = &CellError{Key: cell.Key, Attempt: attempt, Cause: err}
		}
		if opts.Telemetry != nil {
			if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
				opts.Telemetry.Count(cell.Group, telemetry.MetricTimeouts, 1)
			}
			var pe *PanicError
			if errors.As(err, &pe) {
				opts.Telemetry.Count(cell.Group, telemetry.MetricPanics, 1)
			}
		}
		if attempt > opts.MaxRetries || !IsTransient(err) || ctx.Err() != nil {
			break
		}
		opts.Telemetry.Count(cell.Group, telemetry.MetricRetries, 1)
		opts.Telemetry.Event(ctx, telemetry.CatRunner, "retry")
		delay := retryDelay(opts.RetryBackoff, cell.Key, attempt+1)
		select {
		case <-time.After(delay):
		case <-ctx.Done():
		}
	}
	if opts.Hook != nil {
		opts.Hook.AfterCell(cell.Key, err)
	}
	return val, err
}

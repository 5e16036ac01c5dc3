// Package runner is the parallel measurement engine: it executes a batch
// of independent measurement cells — each one a benchmark × agent ×
// configuration combination running on its own isolated VM — on a
// worker pool with configurable parallelism.
//
// The paper's methodology is a matrix of measurements where every cell is
// an independent JVM invocation; nothing couples two cells except the
// report that aggregates them. The runner exploits exactly that
// independence: cells are scheduled onto workers in submission order,
// results are returned in submission order regardless of completion
// order, and every cell's error is captured individually. Because the
// simulated cycle counts are deterministic per cell, a parallel campaign
// produces byte-identical tables to a sequential one — only wall-clock
// time changes.
package runner

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Cell is one independent unit of measurement work. Do must be
// self-contained: it builds its own program, VM and agent, and must not
// share mutable state with any other cell.
type Cell[T any] struct {
	// Key labels the cell for error reporting ("compress/IPA").
	Key string
	// Group is the cell's scenario family for telemetry aggregation;
	// empty falls back to telemetry.DefaultFamily. It has no effect on
	// scheduling or results.
	Group string
	// Do performs the measurement. It should honour ctx cancellation
	// where practical; the runner itself never starts a cell after ctx
	// is done.
	Do func(ctx context.Context) (T, error)
}

// Result is the outcome of one cell, tagged with its submission index so
// callers can rely on deterministic ordering.
type Result[T any] struct {
	// Index is the cell's position in the submitted batch.
	Index int
	// Key echoes the cell's key.
	Key string
	// Value is the cell's result; meaningful only when Err is nil.
	Value T
	// Err is the cell's own failure, or the context error for cells
	// that were never started because the batch was cancelled.
	Err error
}

// Options configures a batch execution.
type Options struct {
	// Parallelism is the number of cells executed concurrently. Values
	// below 1 mean DefaultParallelism(). 1 reproduces the sequential
	// pipeline exactly.
	Parallelism int
	// FailFast cancels the batch after the first cell error: cells not
	// yet started are marked with the cancellation error instead of
	// running. In-flight cells are not interrupted by the runner, but
	// ones that observe the cancelled context may themselves return a
	// cancellation error; Run still reports the triggering error.
	FailFast bool
	// CellTimeout bounds each attempt of each cell. When positive, the
	// attempt runs on its own goroutine under a deadline context and is
	// abandoned (not interrupted — the simulation is not preemptible) if
	// it overruns; the cell fails with context.DeadlineExceeded wrapped
	// in a CellError. Zero runs cells inline with no deadline.
	CellTimeout time.Duration
	// MaxRetries is the number of additional attempts granted to a cell
	// whose failure is marked Transient. Panics, deadline overruns and
	// plain errors are never retried: the simulation is deterministic,
	// so they would recur.
	MaxRetries int
	// RetryBackoff is the base delay between retry attempts, doubled per
	// failed attempt with deterministic jitter. Zero means
	// DefaultRetryBackoff.
	RetryBackoff time.Duration
	// Hook, when non-nil, is consulted around every attempt — the
	// fault-injection seam. See Hook.
	Hook Hook
	// EmitFailed extends Stream's in-order emission to failed cells:
	// every result is emitted in submission order, Err set on the failed
	// ones, and emission continues past failures. The default (false)
	// preserves the original contract — successful prefix only, stop at
	// the first failure.
	EmitFailed bool
	// Telemetry, when non-nil, records queue-wait, attempt spans and
	// retry/timeout counters. It never influences scheduling or results;
	// nil costs one comparison per cell.
	Telemetry *telemetry.Recorder
}

// DefaultParallelism is the worker count used when Options.Parallelism
// is unset: one worker per available CPU.
func DefaultParallelism() int {
	return runtime.GOMAXPROCS(0)
}

func (o Options) workers(n int) int {
	w := o.Parallelism
	if w < 1 {
		w = DefaultParallelism()
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run executes cells on a worker pool and returns one Result per cell in
// submission order. The returned error is the lowest-index cell error
// (nil if every cell succeeded) — the same error a sequential loop over
// the cells would have reported first, so callers can treat the batch
// like a sequential pipeline. Under FailFast, a lower-index in-flight
// cell may fail with the internal cancellation instead of a real error;
// Run then reports the error that triggered the cancellation, never the
// cancellation it caused itself.
//
// Cancellation is cooperative: when ctx is done, cells that have not yet
// started are marked with ctx.Err() and Run returns after in-flight
// cells finish.
func Run[T any](ctx context.Context, opts Options, cells []Cell[T]) ([]Result[T], error) {
	return Stream(ctx, opts, cells, nil)
}

// Stream is Run with in-order result streaming: emit (when non-nil) is
// invoked for every successful cell in submission order, each as soon as
// it and all lower-index cells have completed — a campaign can render
// finished rows while later cells are still running, without giving up
// deterministic output order. After the first failed cell in submission
// order no further emissions happen — unless Options.EmitFailed is set,
// in which case every result is emitted in order, failures included, and
// emission continues past them. An emit error cancels the batch and is
// reported like a cell error. The returned results cover every cell
// regardless of how far emission got.
func Stream[T any](ctx context.Context, opts Options, cells []Cell[T], emit func(Result[T]) error) ([]Result[T], error) {
	results := make([]Result[T], len(cells))
	if len(cells) == 0 {
		return results, ctx.Err()
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	submitted := time.Now() // queue-wait epoch for telemetry

	var failOnce sync.Once
	var failErr error // the error that triggered fail-fast cancellation
	indices := make(chan int)
	completed := make(chan int, len(cells))
	var wg sync.WaitGroup
	for w := 0; w < opts.workers(len(cells)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indices {
				cell := cells[i]
				r := Result[T]{Index: i, Key: cell.Key}
				if err := runCtx.Err(); err != nil {
					r.Err = err
				} else {
					if opts.Telemetry != nil {
						opts.Telemetry.Observe(cell.Group, telemetry.MetricQueueWaitNs,
							float64(time.Since(submitted).Nanoseconds()))
					}
					r.Value, r.Err = runCell(runCtx, opts, cell)
					if r.Err != nil && opts.FailFast {
						err := r.Err
						failOnce.Do(func() {
							failErr = err
							cancel()
						})
					}
				}
				results[i] = r
				completed <- i
			}
		}()
	}
	go func() {
		for i := range cells {
			indices <- i
		}
		close(indices)
		wg.Wait()
		close(completed)
	}()

	// Drain completions, emitting the longest finished prefix in order.
	// The channel send in the worker publishes results[i], so reading the
	// slice here is race-free.
	next := 0
	done := make([]bool, len(cells))
	var emitErr error
	emitting := emit != nil
	for i := range completed {
		done[i] = true
		for next < len(cells) && done[next] {
			r := results[next]
			next++
			if !emitting {
				continue
			}
			if r.Err != nil && !opts.EmitFailed {
				emitting = false
				continue
			}
			if err := emit(r); err != nil {
				emitErr = err
				emitting = false
				cancel()
			}
		}
	}

	err := FirstError(results)
	// A fail-fast cancellation can surface in a lower-index in-flight
	// cell as a context error; report the root cause instead — unless
	// the caller's own context was cancelled, which takes precedence.
	if failErr != nil && err != nil && ctx.Err() == nil && errors.Is(err, context.Canceled) {
		err = failErr
	}
	// A rejected emission aborts the batch; the emit error is the root
	// cause of any cancellation errors that follow it.
	if emitErr != nil {
		err = emitErr
	}
	return results, err
}

// Map runs one cell per item through Run, preserving item order. key
// labels each item for error reporting; a nil key leaves keys empty.
func Map[In, Out any](ctx context.Context, opts Options, items []In,
	key func(In) string, do func(context.Context, In) (Out, error)) ([]Result[Out], error) {
	cells := make([]Cell[Out], len(items))
	for i, item := range items {
		cells[i] = Cell[Out]{
			Do: func(ctx context.Context) (Out, error) { return do(ctx, item) },
		}
		if key != nil {
			cells[i].Key = key(item)
		}
	}
	return Run(ctx, opts, cells)
}

// FirstError returns the error of the lowest-index failed cell, or nil.
func FirstError[T any](results []Result[T]) error {
	for _, r := range results {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}

// Values extracts the cell values in submission order. It is valid only
// for batches where FirstError returned nil.
func Values[T any](results []Result[T]) []T {
	out := make([]T, len(results))
	for i, r := range results {
		out[i] = r.Value
	}
	return out
}

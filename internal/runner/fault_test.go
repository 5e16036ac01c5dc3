package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPanicIsolation proves a panicking cell becomes a typed CellError
// with a captured stack instead of killing the process, and does not
// abort the rest of the batch when FailFast is off.
func TestPanicIsolation(t *testing.T) {
	cells := []Cell[int]{
		{Key: "ok-0", Do: func(context.Context) (int, error) { return 10, nil }},
		{Key: "boom", Do: func(context.Context) (int, error) { panic("injected") }},
		{Key: "ok-2", Do: func(context.Context) (int, error) { return 12, nil }},
	}
	results, err := Run(context.Background(), Options{Parallelism: 1}, cells)
	if err == nil {
		t.Fatal("expected batch error")
	}
	var ce *CellError
	if !errors.As(results[1].Err, &ce) {
		t.Fatalf("cell 1 error = %v (%T), want *CellError", results[1].Err, results[1].Err)
	}
	if ce.Key != "boom" || ce.Attempt != 1 {
		t.Errorf("CellError = {Key:%q Attempt:%d}, want {boom 1}", ce.Key, ce.Attempt)
	}
	var pe *PanicError
	if !errors.As(ce, &pe) || pe.Value != "injected" {
		t.Errorf("cause = %v, want PanicError{injected}", ce.Cause)
	}
	if len(ce.Stack) == 0 || !strings.Contains(string(ce.Stack), "runner") {
		t.Errorf("stack not captured: %q", ce.Stack)
	}
	if results[0].Value != 10 || results[0].Err != nil {
		t.Errorf("cell 0 = %+v, want 10", results[0])
	}
	if results[2].Value != 12 || results[2].Err != nil {
		t.Errorf("cell 2 = %+v, want 12 (panic must not abort later cells)", results[2])
	}
}

// TestPanicIsolationParallel runs panicking cells concurrently under the
// race detector to prove recovery is per-worker safe.
func TestPanicIsolationParallel(t *testing.T) {
	const n = 32
	cells := make([]Cell[int], n)
	for i := range cells {
		cells[i] = Cell[int]{Key: fmt.Sprintf("c%d", i), Do: func(context.Context) (int, error) {
			if i%3 == 0 {
				panic(i)
			}
			return i, nil
		}}
	}
	results, _ := Run(context.Background(), Options{Parallelism: 8}, cells)
	for i, r := range results {
		if i%3 == 0 {
			var ce *CellError
			if !errors.As(r.Err, &ce) {
				t.Fatalf("cell %d: err = %v, want CellError", i, r.Err)
			}
		} else if r.Err != nil || r.Value != i {
			t.Fatalf("cell %d = %+v, want %d", i, r, i)
		}
	}
}

// TestCellTimeout proves a cell that ignores its context is abandoned at
// the deadline with context.DeadlineExceeded, without stalling the batch.
func TestCellTimeout(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	cells := []Cell[int]{
		{Key: "hang", Do: func(ctx context.Context) (int, error) {
			<-release // ignores ctx: simulates a hung scenario
			return 0, nil
		}},
		{Key: "fast", Do: func(context.Context) (int, error) { return 7, nil }},
	}
	results, _ := Run(context.Background(), Options{Parallelism: 1, CellTimeout: 20 * time.Millisecond}, cells)
	var ce *CellError
	if !errors.As(results[0].Err, &ce) || !errors.Is(ce, context.DeadlineExceeded) {
		t.Fatalf("hang err = %v, want CellError wrapping DeadlineExceeded", results[0].Err)
	}
	if results[1].Err != nil || results[1].Value != 7 {
		t.Fatalf("fast cell = %+v, want 7 (timeout must not abort later cells)", results[1])
	}
}

// TestCellTimeoutRespectsContext proves a cell that does honour its
// context observes the per-cell deadline through ctx.
func TestCellTimeoutRespectsContext(t *testing.T) {
	cells := []Cell[int]{{Key: "polite", Do: func(ctx context.Context) (int, error) {
		<-ctx.Done()
		return 0, ctx.Err()
	}}}
	results, _ := Run(context.Background(), Options{CellTimeout: 10 * time.Millisecond}, cells)
	if !errors.Is(results[0].Err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", results[0].Err)
	}
}

// TestTransientRetry proves transient failures are retried up to
// MaxRetries and the attempt count lands in the final error.
func TestTransientRetry(t *testing.T) {
	var calls atomic.Int32
	cells := []Cell[int]{{Key: "flaky", Do: func(context.Context) (int, error) {
		if calls.Add(1) < 3 {
			return 0, Transient(errors.New("blip"))
		}
		return 42, nil
	}}}
	opts := Options{MaxRetries: 3, RetryBackoff: time.Microsecond}
	results, err := Run(context.Background(), opts, cells)
	if err != nil || results[0].Value != 42 {
		t.Fatalf("got (%v, %v), want 42 after 2 transient failures", results[0].Value, err)
	}
	if calls.Load() != 3 {
		t.Errorf("calls = %d, want 3", calls.Load())
	}

	// Exhausted retries surface the last attempt's CellError.
	calls.Store(0)
	exhaust := []Cell[int]{{Key: "dead", Do: func(context.Context) (int, error) {
		calls.Add(1)
		return 0, Transient(errors.New("always"))
	}}}
	results, _ = Run(context.Background(), Options{MaxRetries: 2, RetryBackoff: time.Microsecond}, exhaust)
	var ce *CellError
	if !errors.As(results[0].Err, &ce) || ce.Attempt != 3 {
		t.Fatalf("err = %v, want CellError at attempt 3", results[0].Err)
	}
	if !IsTransient(ce) {
		t.Error("transience marker must survive CellError wrapping")
	}
	if calls.Load() != 3 {
		t.Errorf("calls = %d, want 3 (1 + 2 retries)", calls.Load())
	}
}

// TestNonTransientNotRetried proves plain errors and panics never spend
// retry attempts: the simulation is deterministic, so they would recur.
func TestNonTransientNotRetried(t *testing.T) {
	for _, tc := range []struct {
		name string
		do   func(context.Context) (int, error)
	}{
		{"plain-error", func(context.Context) (int, error) { return 0, errors.New("deterministic") }},
		{"panic", func(context.Context) (int, error) { panic("deterministic") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var calls atomic.Int32
			cells := []Cell[int]{{Key: tc.name, Do: func(ctx context.Context) (int, error) {
				calls.Add(1)
				return tc.do(ctx)
			}}}
			Run(context.Background(), Options{MaxRetries: 5, RetryBackoff: time.Microsecond}, cells)
			if calls.Load() != 1 {
				t.Errorf("calls = %d, want 1 (no retries for non-transient failures)", calls.Load())
			}
		})
	}
}

// TestRetryDelayDeterministic proves the backoff is a pure function of
// (key, attempt) and grows exponentially.
func TestRetryDelayDeterministic(t *testing.T) {
	base := 10 * time.Millisecond
	d2 := retryDelay(base, "cell-a", 2)
	if d2 != retryDelay(base, "cell-a", 2) {
		t.Fatal("same inputs must give the same delay")
	}
	if d2 < base || d2 >= 2*base {
		t.Errorf("attempt-2 delay %v outside [base, 2*base)", d2)
	}
	d3 := retryDelay(base, "cell-a", 3)
	if d3 < 2*base || d3 >= 3*base {
		t.Errorf("attempt-3 delay %v outside [2*base, 3*base)", d3)
	}
	if retryDelay(base, "cell-b", 2) == retryDelay(base, "cell-c", 2) {
		t.Error("jitter ignores the key")
	}
}

// TestEmitFailed proves Stream with EmitFailed emits every result in
// submission order, failures included, and keeps emitting past them.
func TestEmitFailed(t *testing.T) {
	cells := []Cell[int]{
		{Key: "a", Do: func(context.Context) (int, error) { return 1, nil }},
		{Key: "b", Do: func(context.Context) (int, error) { return 0, errors.New("fail-b") }},
		{Key: "c", Do: func(context.Context) (int, error) { panic("fail-c") }},
		{Key: "d", Do: func(context.Context) (int, error) { return 4, nil }},
	}
	for _, par := range []int{1, 4} {
		var mu sync.Mutex
		var seen []string
		_, _ = Stream(context.Background(), Options{Parallelism: par, EmitFailed: true}, cells,
			func(r Result[int]) error {
				mu.Lock()
				defer mu.Unlock()
				if r.Err != nil {
					seen = append(seen, r.Key+"!")
				} else {
					seen = append(seen, r.Key)
				}
				return nil
			})
		got := strings.Join(seen, ",")
		if got != "a,b!,c!,d" {
			t.Errorf("parallelism %d: emitted %q, want a,b!,c!,d", par, got)
		}
	}
}

// TestEmitDefaultStopsAtFailure pins the original contract when
// EmitFailed is off: successful prefix only.
func TestEmitDefaultStopsAtFailure(t *testing.T) {
	cells := []Cell[int]{
		{Key: "a", Do: func(context.Context) (int, error) { return 1, nil }},
		{Key: "b", Do: func(context.Context) (int, error) { return 0, errors.New("fail") }},
		{Key: "c", Do: func(context.Context) (int, error) { return 3, nil }},
	}
	var seen []string
	_, err := Stream(context.Background(), Options{Parallelism: 1}, cells,
		func(r Result[int]) error { seen = append(seen, r.Key); return nil })
	if err == nil {
		t.Fatal("expected batch error")
	}
	if got := strings.Join(seen, ","); got != "a" {
		t.Errorf("emitted %q, want just a", got)
	}
}

// recordingHook records every hook invocation.
type recordingHook struct {
	mu     sync.Mutex
	before []string
	after  []string
}

func (h *recordingHook) BeforeAttempt(_ context.Context, key string, attempt int) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.before = append(h.before, fmt.Sprintf("%s/%d", key, attempt))
	return nil
}

func (h *recordingHook) AfterCell(key string, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	suffix := ""
	if err != nil {
		suffix = "!"
	}
	h.after = append(h.after, key+suffix)
}

// TestHookSequencing proves the hook sees every attempt and exactly one
// AfterCell per cell, with the final error.
func TestHookSequencing(t *testing.T) {
	var calls atomic.Int32
	h := &recordingHook{}
	cells := []Cell[int]{
		{Key: "flaky", Do: func(context.Context) (int, error) {
			if calls.Add(1) < 2 {
				return 0, Transient(errors.New("blip"))
			}
			return 1, nil
		}},
		{Key: "bad", Do: func(context.Context) (int, error) { return 0, errors.New("nope") }},
	}
	Run(context.Background(), Options{Parallelism: 1, MaxRetries: 2, RetryBackoff: time.Microsecond, Hook: h}, cells)
	if got := strings.Join(h.before, ","); got != "flaky/1,flaky/2,bad/1" {
		t.Errorf("BeforeAttempt calls = %q, want flaky/1,flaky/2,bad/1", got)
	}
	if got := strings.Join(h.after, ","); got != "flaky,bad!" {
		t.Errorf("AfterCell calls = %q, want flaky,bad!", got)
	}
}

// panicHook panics in BeforeAttempt to prove hook panics are isolated
// exactly like cell panics.
type panicHook struct{}

func (panicHook) BeforeAttempt(context.Context, string, int) error { panic("hook bomb") }
func (panicHook) AfterCell(string, error)                          {}

func TestHookPanicIsolated(t *testing.T) {
	cells := []Cell[int]{{Key: "x", Do: func(context.Context) (int, error) { return 1, nil }}}
	results, _ := Run(context.Background(), Options{Hook: panicHook{}}, cells)
	var ce *CellError
	if !errors.As(results[0].Err, &ce) {
		t.Fatalf("err = %v, want CellError from hook panic", results[0].Err)
	}
}

// TestSuccessfulStreamUnchanged proves the fault-tolerance layer does not
// perturb the byte-identical in-order streaming of successful cells at
// any parallelism, with and without a cell timeout.
func TestSuccessfulStreamUnchanged(t *testing.T) {
	const n = 24
	cells := make([]Cell[string], n)
	for i := range cells {
		cells[i] = Cell[string]{Key: fmt.Sprintf("c%d", i), Do: func(context.Context) (string, error) {
			return fmt.Sprintf("row-%02d", i), nil
		}}
	}
	var want strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&want, "row-%02d\n", i)
	}
	for _, opts := range []Options{
		{Parallelism: 1},
		{Parallelism: 8},
		{Parallelism: 8, CellTimeout: time.Minute, MaxRetries: 2},
		{Parallelism: 8, EmitFailed: true},
	} {
		var got strings.Builder
		var mu sync.Mutex
		_, err := Stream(context.Background(), opts, cells, func(r Result[string]) error {
			mu.Lock()
			defer mu.Unlock()
			got.WriteString(r.Value + "\n")
			return nil
		})
		if err != nil {
			t.Fatalf("opts %+v: %v", opts, err)
		}
		if got.String() != want.String() {
			t.Errorf("opts %+v: stream output diverged", opts)
		}
	}
}

// TestIsTransientNil pins Transient(nil) == nil.
func TestIsTransientNil(t *testing.T) {
	if Transient(nil) != nil {
		t.Error("Transient(nil) must be nil")
	}
	if IsTransient(errors.New("x")) {
		t.Error("plain errors are not transient")
	}
	if !IsTransient(fmt.Errorf("wrap: %w", Transient(errors.New("x")))) {
		t.Error("transience must survive wrapping")
	}
}

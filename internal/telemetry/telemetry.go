// Package telemetry is the observability spine of the measurement
// pipeline: one Recorder threaded from the CLIs through the harness, the
// runner and the result cache collects trace
// spans (exported as Chrome trace_event JSON, loadable in Perfetto) and
// a metrics registry (counters and fixed-bucket histograms aggregated
// per scenario family, dumped as JSON and summarized on stderr).
//
// Two invariants, enforced by construction and pinned by tests:
//
//   - Telemetry never touches a simulated observable. Everything the
//     Recorder collects is host-side bookkeeping stamped outside the
//     canonical cell payloads, so campaign output is byte-identical with
//     telemetry on or off, at any parallelism, on any engine. The VM and
//     JIT are not instrumented at all — tier promotions, OSR entries,
//     deopts and GC pauses are read from the existing jit.Stats and
//     vm.GCStats seams after each run.
//
//   - A disabled Recorder is a nil pointer, and every method is nil-safe
//     with an early return: the fast path through an uninstrumented
//     campaign costs one nil comparison per call site and zero
//     allocations (pinned by an AllocsPerRun test).
//
// Span lanes: concurrent spans render on separate Perfetto tracks
// ("lanes", the trace tid). A span started from a context that already
// carries a lane — the runner's attempt span wraps the harness's cell
// work via the attempt context — nests on its parent's lane, which is
// how Perfetto displays containment; root spans acquire the smallest
// free lane and release it when they end, so a campaign at parallelism
// N renders as N compact tracks rather than one row per cell.
//
// See docs/observability.md for the span taxonomy and file formats.
package telemetry

import (
	"context"
	"sync"
	"time"
)

// ProcessFamily is the pseudo-family process-wide events aggregate
// under: cache hits, misses and evictions — anything not attributable to
// one scenario family.
const ProcessFamily = "_process"

// DefaultFamily is the family used for cells that did not declare one
// (ad-hoc measurements outside the scenario registry), matching the
// harness's legacy "adhoc" scenario family.
const DefaultFamily = "adhoc"

// Recorder collects trace events and metrics for one tool invocation.
// A nil *Recorder is the disabled state: every method returns
// immediately. All methods are safe for concurrent use.
type Recorder struct {
	epoch   time.Time
	traceOn bool

	mu     sync.Mutex
	events []traceEvent
	lanes  []bool // lanes[i] true while lane i is held by a live root span

	reg Registry
}

// New returns an enabled Recorder. With trace set, spans and events are
// buffered for WriteTrace; without it only the metrics registry fills,
// and StartSpan/Event become no-ops (metrics-only mode).
func New(trace bool) *Recorder {
	return &Recorder{epoch: time.Now(), traceOn: trace}
}

// TraceEnabled reports whether this recorder buffers trace events.
func (r *Recorder) TraceEnabled() bool { return r != nil && r.traceOn }

// EventCount returns the number of buffered trace events.
func (r *Recorder) EventCount() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Metrics exposes the recorder's registry (nil for a nil recorder);
// callers needing only Count/Observe should use the Recorder methods,
// which are nil-safe.
func (r *Recorder) Metrics() *Registry {
	if r == nil {
		return nil
	}
	return &r.reg
}

// Count adds n to the named counter under family. Nil-safe, zero-alloc
// when disabled.
func (r *Recorder) Count(family, name string, n uint64) {
	if r == nil || n == 0 {
		return
	}
	r.reg.Count(family, name, n)
}

// Observe records one sample of the named histogram under family.
// Nil-safe, zero-alloc when disabled.
func (r *Recorder) Observe(family, name string, v float64) {
	if r == nil {
		return
	}
	r.reg.Observe(family, name, v)
}

// laneKey carries a span's lane through the context so child spans nest
// on their parent's Perfetto track.
type laneKey struct{}

// Span is one open trace span. A nil *Span (what a disabled or
// metrics-only Recorder hands out) is inert: Arg and End are no-ops.
type Span struct {
	r     *Recorder
	cat   string
	name  string
	start time.Time
	lane  int
	owned bool // this span acquired its lane and must release it
	args  map[string]any
}

// StartSpan opens a span. The returned context carries the span's lane,
// so spans started under it nest on the same trace track; pass it down
// to whatever work the span covers. When the recorder is nil or
// metrics-only the context is returned unchanged and the span is nil —
// no allocation happens.
func (r *Recorder) StartSpan(ctx context.Context, cat, name string) (context.Context, *Span) {
	if r == nil || !r.traceOn {
		return ctx, nil
	}
	s := &Span{r: r, cat: cat, name: name, start: time.Now()}
	if lane, ok := ctx.Value(laneKey{}).(int); ok {
		s.lane = lane
	} else {
		s.lane = r.acquireLane()
		s.owned = true
		ctx = context.WithValue(ctx, laneKey{}, s.lane)
	}
	return ctx, s
}

// Arg attaches a key/value argument rendered in the trace viewer's
// detail pane. Nil-safe; returns the span for chaining. Call only under
// an enabled-recorder guard on hot paths — boxing the value allocates at
// the call site regardless of the nil check inside.
func (s *Span) Arg(key string, value any) *Span {
	if s == nil {
		return nil
	}
	if s.args == nil {
		s.args = make(map[string]any, 4)
	}
	s.args[key] = value
	return s
}

// End closes the span, buffering one complete ("ph":"X") trace event,
// and releases the span's lane if it owned it. Nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Now()
	r := s.r
	ev := traceEvent{
		Name: s.name,
		Cat:  s.cat,
		Ph:   "X",
		TS:   micros(s.start.Sub(r.epoch)),
		Dur:  micros(now.Sub(s.start)),
		PID:  tracePID,
		TID:  s.lane,
		Args: s.args,
	}
	r.mu.Lock()
	r.events = append(r.events, ev)
	if s.owned {
		r.releaseLaneLocked(s.lane)
	}
	r.mu.Unlock()
}

// Event buffers an instant trace event on the context's lane (or lane 0
// when the context carries none). Nil-safe and a no-op in metrics-only
// mode.
func (r *Recorder) Event(ctx context.Context, cat, name string) {
	if r == nil || !r.traceOn {
		return
	}
	lane := 0
	if l, ok := ctx.Value(laneKey{}).(int); ok {
		lane = l
	}
	ev := traceEvent{
		Name:  name,
		Cat:   cat,
		Ph:    "i",
		Scope: "t",
		TS:    micros(time.Since(r.epoch)),
		PID:   tracePID,
		TID:   lane,
	}
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

// acquireLane reserves the smallest free lane.
func (r *Recorder) acquireLane() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, used := range r.lanes {
		if !used {
			r.lanes[i] = true
			return i
		}
	}
	r.lanes = append(r.lanes, true)
	return len(r.lanes) - 1
}

func (r *Recorder) releaseLaneLocked(lane int) {
	if lane >= 0 && lane < len(r.lanes) {
		r.lanes[lane] = false
	}
}

// micros converts a duration to the trace_event microsecond timebase.
func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

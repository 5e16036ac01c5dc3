package core

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime/metrics"
	"time"
)

// HostStats is the host-side cost of producing one result: wall-clock
// time and bytes allocated on the Go heap around the measurement, plus
// where the result came from (a real execution, a cache hit, a
// deduplicated sibling). It is advisory telemetry about the simulator
// itself — never a simulated value — so it is excluded from every
// byte-identity contract: canonical cell payloads carry no host stats,
// cached hits report their own (near-zero) cost, and the metrics render
// only behind the opt-in -cellstats flag.
//
// AllocBytes reads the process-wide Go allocation counter, so cells
// measured concurrently (-parallel > 1) attribute each other's
// allocations to whichever cell reads the delta; the number is exact at
// -parallel 1 and an upper bound otherwise.
type HostStats struct {
	// WallNanos is the wall-clock time spent producing the result.
	WallNanos int64 `json:"wallNanos"`
	// AllocBytes is the Go-heap allocation delta around the production.
	AllocBytes uint64 `json:"allocBytes"`
	// Source says how the result was produced: "run" (executed), "cache"
	// (persistent result-cache hit), "verify" (cache hit re-executed by
	// -cache-verify) or "dedup" (served by an identical in-process
	// cell).
	Source string `json:"source,omitempty"`
}

// Wall is the wall-clock cost as a duration.
func (h HostStats) Wall() time.Duration { return time.Duration(h.WallNanos) }

// String renders the one-line -cellstats form.
func (h HostStats) String() string {
	src := h.Source
	if src == "" {
		src = "run"
	}
	return fmt.Sprintf("%.3fms wall, %.1f KB allocated, source=%s",
		float64(h.WallNanos)/1e6, float64(h.AllocBytes)/1024, src)
}

// allocSample reads the cumulative Go-heap allocation counter without a
// stop-the-world (unlike runtime.ReadMemStats), cheap enough to wrap
// around every cell.
func allocSample() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// StartHostMeasure begins a host-side measurement; the returned function
// finishes it, stamping the given source:
//
//	done := core.StartHostMeasure()
//	... produce the result ...
//	m.Host = done("run")
func StartHostMeasure() func(source string) HostStats {
	start := time.Now()
	alloc0 := allocSample()
	return func(source string) HostStats {
		alloc1 := allocSample()
		var delta uint64
		if alloc1 > alloc0 {
			delta = alloc1 - alloc0
		}
		return HostStats{
			WallNanos:  time.Since(start).Nanoseconds(),
			AllocBytes: delta,
			Source:     source,
		}
	}
}

// WriteHostJSON emits the host stats as their own small JSON object,
// appended after a report by jprof -json -cellstats. Keeping it a
// separate trailing value (concatenated JSON, like the per-scenario
// reports themselves) means the report bytes stay engine-independent
// and cacheable while the host-cost telemetry still reaches JSON
// consumers.
func WriteHostJSON(w io.Writer, h HostStats) error {
	out := struct {
		Host HostStats `json:"host"`
	}{h}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

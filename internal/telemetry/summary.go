package telemetry

import (
	"fmt"
	"io"
)

// Summary is the one formatter for end-of-run stderr trailers, so
// jvmsim, jprof and tables emit identical shapes: every line is
// "<tool>: <text>". Trailers are diagnostics — they never go to stdout
// and never enter campaign payloads.
type Summary struct {
	tool string
	w    io.Writer
}

// NewSummary returns a Summary writing "<tool>: "-prefixed lines to w.
func NewSummary(tool string, w io.Writer) *Summary {
	return &Summary{tool: tool, w: w}
}

// Tool returns the tool name the summary prefixes lines with.
func (s *Summary) Tool() string { return s.tool }

// Printf writes one prefixed trailer line.
func (s *Summary) Printf(format string, args ...any) {
	fmt.Fprintf(s.w, "%s: %s\n", s.tool, fmt.Sprintf(format, args...))
}

// Stat writes a value's String() form as a trailer line — the result
// cache's Stats, a campaign's host stats.
func (s *Summary) Stat(v fmt.Stringer) { s.Printf("%s", v.String()) }

// Partial writes the partial-campaign trailer.
func (s *Summary) Partial(failed, total int) {
	s.Printf("partial: %d of %d cells failed", failed, total)
}

// Error writes an error trailer line.
func (s *Summary) Error(err error) { s.Printf("%v", err) }

// Metrics writes a compact per-family digest of the recorder's
// registry: one line per scenario family with the cell count,
// wall-time percentiles, cache hits and failures. A nil recorder
// writes nothing.
func (s *Summary) Metrics(r *Recorder) {
	if r == nil {
		return
	}
	d := r.reg.Dump(s.tool)
	for _, fam := range d.FamilyNames() {
		fd := d.Families[fam]
		if fam == ProcessFamily {
			// Process-wide cache counters already have their own
			// trailer; skip the pseudo-family here.
			continue
		}
		cells := fd.Counters[MetricCells]
		if cells == 0 {
			continue
		}
		line := fmt.Sprintf("telemetry: %s: %d cells", fam, cells)
		if hd, ok := fd.Histograms[MetricCellWallNanos]; ok && hd.Count > 0 {
			h := hd.Histogram()
			line += fmt.Sprintf(", wall p50 %s p95 %s",
				fmtNanos(h.Quantile(0.50)), fmtNanos(h.Quantile(0.95)))
		}
		line += fmt.Sprintf(", %d cache hits", fd.Counters[MetricCacheHits])
		if n := fd.Counters[MetricRetries]; n > 0 {
			line += fmt.Sprintf(", %d retries", n)
		}
		if n := fd.Counters[MetricCellsFailed]; n > 0 {
			line += fmt.Sprintf(", %d failed", n)
		}
		s.Printf("%s", line)
	}
}

// fmtNanos renders a nanosecond quantity with a readable unit.
func fmtNanos(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.1fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}

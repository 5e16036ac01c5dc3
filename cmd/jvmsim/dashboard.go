package main

import (
	"flag"
	"fmt"
	"html/template"
	"io"
	"os"
	"strings"

	"repro/internal/harness"
	"repro/internal/telemetry"
)

// familyPanel is one scenario family's dashboard row set, read from the
// run's telemetry metrics for that family.
type familyPanel struct {
	Family string

	// Cell accounting.
	Cells, Failed, Retries, Timeouts, Panics uint64

	// Serving sources: every cell lands in exactly one bucket.
	Runs, CacheHits, DedupHits, Verified uint64
	HitRate                              float64 // (cache+dedup) / cells

	// Wall-time distribution (host-side, never in payloads).
	WallP50, WallP95, WallMax float64 // nanoseconds

	// Tier mix: how much simulated work ran compiled vs fell back.
	Compiled, Deopts, Inlined      uint64
	CompiledFrames, FallbackChunks uint64
	CompiledShare                  float64 // compiled frames / (compiled+fallback)

	// GC activity (simulated cycles, from the deterministic payloads).
	MinorGC, MajorGC, Tenured uint64
	GCPauseP50, GCPauseP95    float64 // simulated cycles per collecting cell
	GCPauseSamples            uint64
}

// processPanel is the process-wide (family-less) section: cache
// traffic that cannot be attributed to one scenario family.
type processPanel struct {
	CacheHits, CacheMisses, CachePuts         uint64
	CacheDeduped, CacheEvicted, CacheVerified uint64
}

// dashboard is everything the renderers need.
type dashboard struct {
	Tool     string
	Families []familyPanel
	Process  *processPanel
}

func counterOf(fd telemetry.FamilyDump, name string) uint64 {
	return fd.Counters[name]
}

func histOf(fd telemetry.FamilyDump, name string) *telemetry.Histogram {
	hd, ok := fd.Histograms[name]
	if !ok {
		return nil
	}
	return hd.Histogram()
}

// buildDashboard gathers a metrics dump into panels, families in the
// dump's sorted order.
func buildDashboard(d *telemetry.Dump) dashboard {
	db := dashboard{Tool: d.Tool}
	for _, fam := range d.FamilyNames() {
		fd := d.Families[fam]
		if fam == telemetry.ProcessFamily {
			db.Process = &processPanel{
				CacheHits:     counterOf(fd, telemetry.MetricProcCacheHits),
				CacheMisses:   counterOf(fd, telemetry.MetricProcCacheMisses),
				CachePuts:     counterOf(fd, telemetry.MetricProcCachePuts),
				CacheDeduped:  counterOf(fd, telemetry.MetricProcCacheDeduped),
				CacheEvicted:  counterOf(fd, telemetry.MetricProcCacheEvicted),
				CacheVerified: counterOf(fd, telemetry.MetricProcCacheVerified),
			}
			continue
		}
		p := familyPanel{
			Family:         fam,
			Cells:          counterOf(fd, telemetry.MetricCells),
			Failed:         counterOf(fd, telemetry.MetricCellsFailed),
			Retries:        counterOf(fd, telemetry.MetricRetries),
			Timeouts:       counterOf(fd, telemetry.MetricTimeouts),
			Panics:         counterOf(fd, telemetry.MetricPanics),
			Runs:           counterOf(fd, telemetry.MetricRuns),
			CacheHits:      counterOf(fd, telemetry.MetricCacheHits),
			DedupHits:      counterOf(fd, telemetry.MetricDedupHits),
			Verified:       counterOf(fd, telemetry.MetricVerified),
			Compiled:       counterOf(fd, telemetry.MetricTierCompiled),
			Deopts:         counterOf(fd, telemetry.MetricTierDeopts),
			Inlined:        counterOf(fd, telemetry.MetricTierInlined),
			CompiledFrames: counterOf(fd, telemetry.MetricTierCompiledFrm),
			FallbackChunks: counterOf(fd, telemetry.MetricTierFallback),
			MinorGC:        counterOf(fd, telemetry.MetricGCMinor),
			MajorGC:        counterOf(fd, telemetry.MetricGCMajor),
			Tenured:        counterOf(fd, telemetry.MetricGCTenured),
		}
		if p.Cells > 0 {
			p.HitRate = float64(p.CacheHits+p.DedupHits) / float64(p.Cells)
		}
		if frames := p.CompiledFrames + p.FallbackChunks; frames > 0 {
			p.CompiledShare = float64(p.CompiledFrames) / float64(frames)
		}
		if h := histOf(fd, telemetry.MetricCellWallNanos); h != nil {
			p.WallP50 = h.Quantile(0.50)
			p.WallP95 = h.Quantile(0.95)
			p.WallMax = h.Max
		}
		if h := histOf(fd, telemetry.MetricGCPauseCycles); h != nil {
			p.GCPauseP50 = h.Quantile(0.50)
			p.GCPauseP95 = h.Quantile(0.95)
			p.GCPauseSamples = h.Count
		}
		db.Families = append(db.Families, p)
	}
	return db
}

func pct(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }

// fmtNs renders a nanosecond duration in the largest unit that keeps it
// at or above 1.
func fmtNs(ns float64) string {
	switch {
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}

// renderText writes the per-family dashboard as aligned text panels.
func renderText(w io.Writer, db dashboard) {
	fmt.Fprintf(w, "# Campaign dashboard — %s metrics\n", db.Tool)
	for _, p := range db.Families {
		fmt.Fprintf(w, "\n%s\n%s\n", p.Family, strings.Repeat("-", len(p.Family)))
		fmt.Fprintf(w, "  cells        %d total, %d failed, %d retries, %d timeouts, %d panics\n",
			p.Cells, p.Failed, p.Retries, p.Timeouts, p.Panics)
		fmt.Fprintf(w, "  sources      %d run, %d cache, %d dedup, %d verified (%s served without re-running)\n",
			p.Runs, p.CacheHits, p.DedupHits, p.Verified, pct(p.HitRate))
		fmt.Fprintf(w, "  wall time    p50 %s  p95 %s  max %s\n",
			fmtNs(p.WallP50), fmtNs(p.WallP95), fmtNs(p.WallMax))
		fmt.Fprintf(w, "  tier mix     %s compiled frames (%d compiled, %d fallback; %d methods, %d deopts, %d inlined calls)\n",
			pct(p.CompiledShare), p.CompiledFrames, p.FallbackChunks, p.Compiled, p.Deopts, p.Inlined)
		if p.MinorGC+p.MajorGC > 0 {
			fmt.Fprintf(w, "  gc           %d minor, %d major, %d tenured; pause cycles p50 %.0f p95 %.0f over %d collecting cells\n",
				p.MinorGC, p.MajorGC, p.Tenured, p.GCPauseP50, p.GCPauseP95, p.GCPauseSamples)
		} else {
			fmt.Fprintf(w, "  gc           quiet (no collections)\n")
		}
	}
	if pr := db.Process; pr != nil {
		fmt.Fprintf(w, "\nprocess\n-------\n")
		fmt.Fprintf(w, "  cache        %d hits, %d misses, %d puts, %d deduped, %d evicted, %d verified\n",
			pr.CacheHits, pr.CacheMisses, pr.CachePuts, pr.CacheDeduped, pr.CacheEvicted, pr.CacheVerified)
	}
}

// htmlTmpl is the self-contained HTML dashboard: one card per family
// with a tier-mix bar, no external assets.
var htmlTmpl = template.Must(template.New("dash").Funcs(template.FuncMap{
	"ns":  fmtNs,
	"pct": pct,
	"mix": func(share float64) int { return int(share * 100) },
}).Parse(`<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>Campaign dashboard</title>
<style>
body { font: 14px/1.45 system-ui, sans-serif; margin: 2em; background: #f6f7f9; }
h1 { font-size: 1.3em; }
.card { background: #fff; border: 1px solid #d8dde3; border-radius: 8px; padding: 1em 1.2em; margin: 1em 0; max-width: 56em; }
.card h2 { margin: 0 0 .5em; font-size: 1.05em; }
table { border-collapse: collapse; }
td { padding: .15em .9em .15em 0; vertical-align: top; }
td.k { color: #5a6470; white-space: nowrap; }
.bar { display: inline-block; width: 160px; height: 10px; background: #e3e7ec; border-radius: 5px; overflow: hidden; vertical-align: middle; }
.bar span { display: block; height: 100%; background: #4c8dd6; }
.muted { color: #8a93a0; }
</style></head><body>
<h1>Campaign dashboard — {{.Tool}} metrics</h1>
{{range .Families}}<div class="card"><h2>{{.Family}}</h2><table>
<tr><td class="k">cells</td><td>{{.Cells}} total, {{.Failed}} failed, {{.Retries}} retries, {{.Timeouts}} timeouts, {{.Panics}} panics</td></tr>
<tr><td class="k">sources</td><td>{{.Runs}} run, {{.CacheHits}} cache, {{.DedupHits}} dedup, {{.Verified}} verified ({{pct .HitRate}} served without re-running)</td></tr>
<tr><td class="k">wall time</td><td>p50 {{ns .WallP50}} · p95 {{ns .WallP95}} · max {{ns .WallMax}}</td></tr>
<tr><td class="k">tier mix</td><td><span class="bar"><span style="width:{{mix .CompiledShare}}%"></span></span> {{pct .CompiledShare}} compiled frames ({{.CompiledFrames}} compiled, {{.FallbackChunks}} fallback; {{.Compiled}} methods, {{.Deopts}} deopts, {{.Inlined}} inlined calls)</td></tr>
<tr><td class="k">gc</td><td>{{if .GCPauseSamples}}{{.MinorGC}} minor, {{.MajorGC}} major, {{.Tenured}} tenured; pause cycles p50 {{printf "%.0f" .GCPauseP50}} · p95 {{printf "%.0f" .GCPauseP95}}{{else}}<span class="muted">quiet (no collections)</span>{{end}}</td></tr>
</table></div>
{{end}}{{if .Process}}<div class="card"><h2>process</h2><table>
<tr><td class="k">cache</td><td>{{.Process.CacheHits}} hits, {{.Process.CacheMisses}} misses, {{.Process.CachePuts}} puts, {{.Process.CacheDeduped}} deduped, {{.Process.CacheEvicted}} evicted, {{.Process.CacheVerified}} verified</td></tr>
</table></div>
{{end}}</body></html>
`))

// runDashboard is the `jvmsim dashboard` subcommand: render a -metrics
// dump as per-family text panels (stdout or -o) and optionally as a
// self-contained HTML page (-html). A missing or unreadable dump is a
// usage error; failing to write an output is fatal.
func runDashboard(args []string) int {
	fs := flag.NewFlagSet("dashboard", flag.ExitOnError)
	metricsPath := fs.String("metrics", "", "telemetry metrics dump to render (from jvmsim/jprof/tables -metrics)")
	outPath := fs.String("o", "", "write the text dashboard to `FILE` instead of stdout")
	htmlPath := fs.String("html", "", "also write a self-contained HTML dashboard to `FILE`")
	if err := fs.Parse(args); err != nil {
		return harness.ExitUsage
	}
	if *metricsPath == "" {
		fmt.Fprintln(os.Stderr, "jvmsim dashboard: -metrics FILE is required")
		return harness.ExitUsage
	}
	data, err := os.ReadFile(*metricsPath)
	var dump *telemetry.Dump
	if err == nil {
		dump, err = telemetry.ReadDump(data)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "jvmsim dashboard:", err)
		return harness.ExitUsage
	}
	db := buildDashboard(dump)
	if len(db.Families) == 0 && db.Process == nil {
		fmt.Fprintln(os.Stderr, "jvmsim dashboard: metrics dump has no families")
		return harness.ExitUsage
	}
	err = writeFile(*outPath, func(w io.Writer) error {
		renderText(w, db)
		return nil
	})
	if err == nil && *htmlPath != "" {
		if err = writeFile(*htmlPath, func(w io.Writer) error { return htmlTmpl.Execute(w, db) }); err == nil {
			fmt.Fprintf(os.Stderr, "jvmsim dashboard: HTML -> %s\n", *htmlPath)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "jvmsim dashboard:", err)
		return harness.ExitFatal
	}
	return harness.ExitComplete
}

// writeFile runs render against path, or against stdout when path is
// empty, and reports the first render or close error.
func writeFile(path string, render func(io.Writer) error) error {
	if path == "" {
		return render(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = render(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/version"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/resultcache"
	"repro/internal/scenarios"
)

// minGoVersion is the toolchain floor, kept in sync with go.mod's `go`
// directive: the doctor flags a binary built (or a `go run` executed)
// with an older toolchain before a subtle behaviour difference does.
const minGoVersion = "go1.24"

// check is one doctor verdict: a named probe, whether it passed, and a
// one-line detail the text renderer prints and the JSON form carries.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// runDoctor is the `jvmsim doctor` subcommand: a fast, side-effect-free
// audit of everything a campaign run depends on — toolchain, scenario
// registry, heap specs, the result cache (the crash-resume store) and
// the benchmark baseline — reporting every failure rather than stopping
// at the first. Returns the process exit code.
func runDoctor(args []string) int {
	fs := flag.NewFlagSet("doctor", flag.ExitOnError)
	format := fs.String("format", "text", "output format: text or json")
	cacheDir := fs.String("cache-dir", os.Getenv(resultcache.EnvVar), "result cache directory to audit (default $"+resultcache.EnvVar+"; empty skips the check)")
	ledger := fs.String("ledger", "BENCH_TREND.json", "benchmark ledger to verify")
	baseline := fs.String("baseline", "pr17", "ledger entry the perf gate compares against")
	tracePath := fs.String("trace", "", "intended -trace output path to audit (empty checks the clock only)")
	metricsPath := fs.String("metrics", "", "intended -metrics output path to audit")
	if err := fs.Parse(args); err != nil {
		return harness.ExitUsage
	}
	if *format != "text" && *format != "json" {
		fmt.Fprintf(os.Stderr, "jvmsim doctor: unknown -format %q (want text or json)\n", *format)
		return harness.ExitUsage
	}

	checks := []check{
		checkToolchain(),
		checkRegistry(),
		checkHeapSpecs(),
		checkCache(*cacheDir),
		checkBaseline(*ledger, *baseline),
		checkTelemetry(*tracePath, *metricsPath, *cacheDir),
	}
	ok := true
	for _, c := range checks {
		if !c.OK {
			ok = false
		}
	}

	if *format == "json" {
		out := struct {
			OK     bool    `json:"ok"`
			Checks []check `json:"checks"`
		}{ok, checks}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "jvmsim doctor:", err)
			return harness.ExitFatal
		}
	} else {
		for _, c := range checks {
			status := "ok  "
			if !c.OK {
				status = "FAIL"
			}
			fmt.Printf("%s %-16s %s\n", status, c.Name, c.Detail)
		}
		if ok {
			fmt.Println("doctor: all checks passed")
		} else {
			fmt.Println("doctor: FAILED")
		}
	}
	if !ok {
		return harness.ExitFatal
	}
	return harness.ExitComplete
}

// checkToolchain verifies the running Go version satisfies the module's
// floor.
func checkToolchain() check {
	v := runtime.Version()
	c := check{Name: "toolchain", Detail: fmt.Sprintf("%s (need >= %s)", v, minGoVersion)}
	// Pre-release/devel toolchains compare as invalid; treat them as
	// passing rather than blocking development builds.
	c.OK = !version.IsValid(v) || version.Compare(version.Lang(v), minGoVersion) >= 0
	return c
}

// checkRegistry verifies the scenario registry is populated, every entry
// revalidates, and the paper profile still holds its eight benchmarks.
func checkRegistry() check {
	c := check{Name: "registry"}
	names := scenarios.Names()
	if len(names) == 0 {
		c.Detail = "no scenarios registered"
		return c
	}
	for _, n := range names {
		s, err := scenarios.Get(n)
		if err != nil {
			c.Detail = err.Error()
			return c
		}
		if err := s.Validate(); err != nil {
			c.Detail = fmt.Sprintf("%s: %v", n, err)
			return c
		}
	}
	paper, err := scenarios.Profile("paper")
	if err != nil {
		c.Detail = err.Error()
		return c
	}
	if len(paper) != 8 {
		c.Detail = fmt.Sprintf("paper profile has %d scenarios, want 8", len(paper))
		return c
	}
	c.OK = true
	c.Detail = fmt.Sprintf("%d scenarios, %d families, paper profile intact", len(names), len(scenarios.Families()))
	return c
}

// checkHeapSpecs revalidates every declared heap spec — the sizing that
// decides whether gcpressure scenarios actually collect.
func checkHeapSpecs() check {
	c := check{Name: "heap-specs"}
	declared := 0
	for _, n := range scenarios.Names() {
		s, err := scenarios.Get(n)
		if err != nil {
			c.Detail = err.Error()
			return c
		}
		if s.Heap == nil {
			continue
		}
		declared++
		if err := s.Heap.Validate(); err != nil {
			c.Detail = fmt.Sprintf("%s: %v", n, err)
			return c
		}
	}
	c.OK = true
	c.Detail = fmt.Sprintf("%d declared heap specs valid", declared)
	return c
}

// checkCache audits the result cache directory: the layout-version stamp
// (a stale or unstamped-populated layout fails with the remediation the
// cache itself would give), durable writability — the cache is the
// crash-resume store, so the probe file is written and fsync'd, as every
// entry is — the current entry count/size, and how many ".put-*" temp
// files lie in the root (Evict sweeps those older than
// resultcache.StrayGrace). An unconfigured cache
// and an absent directory both pass — caching is opt-in, and rw mode
// creates its directory on first use.
func checkCache(dir string) check {
	c := check{Name: "cache-dir"}
	if dir == "" {
		c.OK = true
		c.Detail = "no cache configured (set -cache-dir or $" + resultcache.EnvVar + " to enable)"
		return c
	}
	if _, err := os.Stat(dir); os.IsNotExist(err) {
		c.OK = true
		c.Detail = fmt.Sprintf("%s absent (created on first rw run)", dir)
		return c
	}
	if err := resultcache.CheckLayout(dir); err != nil {
		c.Detail = err.Error()
		return c
	}
	f, err := os.CreateTemp(dir, ".doctor-probe-*")
	if err != nil {
		c.Detail = fmt.Sprintf("%s not writable: %v (ro mode still works)", dir, err)
		return c
	}
	name := f.Name()
	defer os.Remove(name)
	if _, err := f.WriteString("probe\n"); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		c.Detail = fmt.Sprintf("%s: %v", dir, err)
		return c
	}
	cache, err := resultcache.Open(dir, resultcache.ModeRO)
	if err != nil {
		c.Detail = err.Error()
		return c
	}
	count, size, err := cache.Len()
	if err != nil {
		c.Detail = fmt.Sprintf("%s: %v", dir, err)
		return c
	}
	strays, err := cache.Strays()
	if err != nil {
		c.Detail = fmt.Sprintf("%s: %v", dir, err)
		return c
	}
	c.OK = true
	c.Detail = fmt.Sprintf("%s writable (fsync ok), layout %s, %d entries (%.1f MB), %d stray temp files",
		dir, resultcache.LayoutVersion, count, float64(size)/(1<<20), strays)
	return c
}

// checkTelemetry audits the observability outputs a -trace/-metrics run
// would produce: the host clock must carry a monotonic reading (span
// durations come from time.Since, so a wall-only clock would let NTP
// steps produce negative spans), each requested output path's directory
// must be writable, and -trace must not point inside the result cache
// directory — the eviction pass walks that tree by size and would
// happily delete (or be skewed by) a growing trace file.
func checkTelemetry(tracePath, metricsPath, cacheDir string) check {
	c := check{Name: "telemetry"}
	if strings.Index(time.Now().String(), " m=+") < 0 {
		c.Detail = "host clock has no monotonic reading; span durations would be unreliable"
		return c
	}
	if tracePath != "" && cacheDir != "" {
		absTrace, err1 := filepath.Abs(tracePath)
		absCache, err2 := filepath.Abs(cacheDir)
		if err1 == nil && err2 == nil {
			if rel, err := filepath.Rel(absCache, absTrace); err == nil &&
				rel != ".." && !strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
				c.Detail = fmt.Sprintf("refusing: -trace %s lies inside the result cache %s (the eviction pass owns that tree; point -trace elsewhere)", tracePath, cacheDir)
				return c
			}
		}
	}
	probed := 0
	for _, p := range []string{tracePath, metricsPath} {
		if p == "" {
			continue
		}
		dir := filepath.Dir(p)
		f, err := os.CreateTemp(dir, ".doctor-probe-*")
		if err != nil {
			c.Detail = fmt.Sprintf("%s not writable: %v", dir, err)
			return c
		}
		name := f.Name()
		f.Close()
		os.Remove(name)
		probed++
	}
	c.OK = true
	if probed == 0 {
		c.Detail = "monotonic clock ok (pass -trace/-metrics to audit output paths)"
	} else {
		c.Detail = fmt.Sprintf("monotonic clock ok, %d output path(s) writable", probed)
	}
	return c
}

// checkBaseline verifies the benchmark ledger parses and contains the
// baseline entry the perf gate (`benchtrend -check`) compares against.
func checkBaseline(path, label string) check {
	c := check{Name: "bench-baseline"}
	data, err := os.ReadFile(path)
	if err != nil {
		c.Detail = err.Error()
		return c
	}
	var ledger struct {
		Entries []struct {
			Label string `json:"label"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(data, &ledger); err != nil {
		c.Detail = fmt.Sprintf("%s: %v", path, err)
		return c
	}
	for _, e := range ledger.Entries {
		if e.Label == label {
			c.OK = true
			c.Detail = fmt.Sprintf("%s holds baseline %q (%d entries)", path, label, len(ledger.Entries))
			return c
		}
	}
	c.Detail = fmt.Sprintf("%s has no entry labelled %q (%d entries)", path, label, len(ledger.Entries))
	return c
}

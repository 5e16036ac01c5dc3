// Command cpubench is the repository's benchmark. It measures the
// simulator end to end in process CPU time on three workloads, each a
// closed loop with one client over the harness's public entry points:
//
//	paper-interp   Tables I+II at scale 8 on the interp engine; op = cell
//	campaign-jit   the all-family campaign × (none, ipa) on the jit engine; op = cell
//	cache-rerun    re-runs of the all-family campaign against a pre-warmed
//	               result cache, now and then with never-seen cells; op = re-run
//
// Run it from the root of the repository, through run.sh, which builds it:
//
//	bash cpubench/run.sh --workload paper-interp --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 a
// separate traced run prints the per-layer metrics. The last line of
// standard output is one JSON object: correct, attempted, failed and
// metrics. See README.md for the workloads, metrics and the reasons for
// measuring CPU time rather than wall time.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// outRoot holds what a run leaves behind: the cache directories of
// cache-rerun and the traced run's span files. It is inside the checkout
// the benchmark runs from.
const outRoot = ".bench_build/cpubench"

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "paper-interp":
		return &paperInterp{}, nil
	case "campaign-jit":
		return &campaignJIT{seed: seed}, nil
	case "cache-rerun":
		return &cacheRerun{seed: seed, root: filepath.Join(outRoot, fmt.Sprintf("cache-%d", os.Getpid()))}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want paper-interp, campaign-jit or cache-rerun)", name)
}

func main() {
	name := flag.String("workload", "", "paper-interp, campaign-jit or cache-rerun")
	seed := flag.Int64("seed", 1, "workload seed: scenario order (campaign-jit) and never-seen variants (cache-rerun)")
	seconds := flag.Float64("seconds", 10, "wall-clock seconds of measured passes")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "cpubench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace bool) error {
	// One P: the client runs one cell at a time, and with a second P idle
	// the GC's idle mark workers burn CPU for as long as a cycle lasts in
	// wall time, which made CPU per op depend on the host's load.
	runtime.GOMAXPROCS(1)
	w, err := newWorkload(name, seed)
	if err != nil {
		return err
	}
	defer w.close()
	host := newHostContext()
	setup0, err := setupCPU(w)
	if err != nil {
		return err
	}
	if dir := w.cacheDir(); dir != "" {
		host.CacheFS = fsName(dir)
	}

	win := openWindow()
	var (
		metrics map[string]metric
		s       runStats
	)
	if trace {
		if m, ok := w.(interface{ openMirror() error }); ok {
			if err := m.openMirror(); err != nil {
				return err
			}
		}
		tag := fmt.Sprintf("%s-seed%d", name, seed)
		if metrics, s, err = traced(w, seconds, outRoot, tag); err != nil {
			return err
		}
		host.WallPerCPU, host.StealFrac = win.close()
		metrics["host.wall_per_cpu"] = metric{host.WallPerCPU, "ratio"}
		metrics["host.steal_frac"] = metric{host.StealFrac, "ratio"}
		fmt.Printf("# spans and telemetry trace written to %s/%s.*\n", outRoot, tag)
	} else {
		cal := newCalibrator()
		var setups []float64
		if s, setups, err = measure(w, seconds, cal); err != nil {
			return err
		}
		host.WallPerCPU, host.StealFrac = win.close()
		var note string
		metrics, note = endToEnd(s, median(append(setups, setup0)), cal)
		fmt.Printf("# %s\n", note)
	}
	if len(s.failures) > 0 {
		fmt.Printf("# failures: %s\n", strings.Join(s.failures, "; "))
	}
	res := result{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: metrics}
	hostLine, _ := json.Marshal(host)
	fmt.Printf("# host %s\n", hostLine)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

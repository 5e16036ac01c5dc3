package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/jit"
	"repro/internal/telemetry"
)

// workload is one benchmark workload: a set-up, then measured passes
// over the harness's public entry points, each with its correctness gate.
type workload interface {
	// setup builds everything the passes need from scratch: scenario
	// lists, references, cache pre-warm and warm-up passes.
	setup() error
	// pass runs pass n. tr is nil for an untraced pass.
	pass(n int, tr *passTrace) passOut
	// cacheDir is the result-cache directory, "" when the workload
	// bypasses the cache.
	cacheDir() string
	// close releases what setup acquired.
	close()
}

// passOut is the outcome of one pass.
type passOut struct {
	// attempted is the number of ops the pass tried.
	attempted int
	// opCPU is the process CPU time of each op, in nanoseconds.
	opCPU []float64
	// cpu and alloc are the process CPU time and Go-heap bytes allocated
	// inside the timed harness calls; the benchmark's checks run outside.
	cpu   time.Duration
	alloc uint64
	// failure, when set, is why the pass's correctness gate failed; every
	// op of the pass then counts as failed.
	failure string
	// Traced passes only: exact counts of what the pass simulated, and
	// the result cache's lookups.
	counts        simCounts
	hits, lookups uint64
}

// baseConfig is the harness configuration every workload starts from:
// one run per cell, one client, cells run one at a time.
func baseConfig(scale int, engine jit.Engine) harness.Config {
	cfg := harness.DefaultConfig()
	cfg.Runs = 1
	cfg.Scale = scale
	cfg.Parallelism = 1
	cfg.Opts.Tier = engine
	return cfg
}

// setupReps is how many times an untraced run sets up; setup_s is the
// median.
const setupReps = 5

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runStats accumulates the measured passes.
type runStats struct {
	attempted, failed int
	opCPU             []float64
	cpu               time.Duration
	alloc             uint64
	failures          []string
}

func (s *runStats) add(out passOut) {
	s.attempted += out.attempted
	s.cpu += out.cpu
	s.alloc += out.alloc
	if out.failure != "" {
		s.failed += out.attempted
		s.failures = append(s.failures, out.failure)
		return
	}
	s.opCPU = append(s.opCPU, out.opCPU...)
}

func (s *runStats) completed() int { return s.attempted - s.failed }

// setupCPU runs set-up once and returns its CPU seconds.
func setupCPU(w workload) (float64, error) {
	c0 := processCPU()
	if err := w.setup(); err != nil {
		return 0, fmt.Errorf("set-up: %w", err)
	}
	return (processCPU() - c0).Seconds(), nil
}

// measure runs untraced passes for at least seconds of wall time. After
// each pass it runs the calibration kernel once per op attempted, so the
// kernel meets the host's states in step with the ops. It also sets up
// again at every setupReps-th of seconds (setupReps-1 times when passes
// are short) and returns those set-ups' CPU seconds: a set-up is one
// sample of a second or less, and samples spread over the run meet more
// of the host's states than back-to-back ones. Passes after a set-up
// start from its fresh state, as the first pass did.
func measure(w workload, seconds float64, cal *calibrator) (runStats, []float64, error) {
	var (
		s      runStats
		setups []float64
	)
	start := time.Now()
	for n := 0; n == 0 || time.Since(start).Seconds() < seconds; n++ {
		if due := float64(len(setups)+1) * seconds / setupReps; time.Since(start).Seconds() >= due {
			cpu, err := setupCPU(w)
			if err != nil {
				return s, nil, err
			}
			setups = append(setups, cpu)
		}
		out := w.pass(n, nil)
		s.add(out)
		for range out.attempted {
			cal.run()
		}
	}
	return s, setups, nil
}

// endToEnd turns the untraced passes into the end-to-end metrics, every
// CPU time rescaled to the reference host by the calibrator.
func endToEnd(s runStats, setupS float64, cal *calibrator) (map[string]metric, string) {
	scale := cal.scale()
	m := map[string]metric{"setup_s": {setupS * scale, "s"}}
	if s.cpu > 0 {
		m["ops_per_ref_cpu_s"] = metric{float64(s.completed()) / (s.cpu.Seconds() * scale), "1/s"}
	}
	if s.attempted > 0 {
		m["alloc_mb_per_op"] = metric{float64(s.alloc) / float64(s.attempted) / 1e6, "MB"}
	}
	p50, beyond, ok := percentile(s.opCPU, 0.50)
	if ok {
		m["op_ref_cpu_p50_ms"] = metric{p50 * scale / 1e6, "ms"}
	}
	note := fmt.Sprintf("samples %d; p50 with %d beyond (reported only with >= %d); kernel median %.4f ms of %d runs, scale %.4f; "+
		"unscaled: %.2f ops per CPU-s, p50 %.4f ms, set-up %.4f s",
		len(s.opCPU), beyond, minBeyond, median(cal.runs)/1e6, len(cal.runs), scale,
		ratio(float64(s.completed()), s.cpu.Seconds()), p50/1e6, setupS)
	return m, note
}

// traced runs the per-layer measurement: untraced passes for a third of
// seconds, as the base for trace.overhead_frac and the Go runtime
// figures, then traced passes for the rest. The spans and the program's
// telemetry trace are written under outDir. Ops of passes that fail
// their gate are counted in s and left out of the metrics.
func traced(w workload, seconds float64, outDir, tag string) (m map[string]metric, s runStats, err error) {
	g0 := readGoStats()
	peak := g0.heapObjects
	var base []float64
	start := time.Now()
	n := 0
	for time.Since(start).Seconds() < seconds/3 || n == 0 {
		out := w.pass(n, nil)
		s.add(out)
		if out.failure == "" {
			base = append(base, out.opCPU...)
		}
		n++
		peak = max(peak, readGoStats().heapObjects)
	}
	g1 := readGoStats()

	tr := &passTrace{tracer: newTracer(), rec: telemetry.New(true)}
	var outs []passOut
	var tracedOps []float64
	for first := true; first || time.Since(start).Seconds() < seconds; first = false {
		out := w.pass(n, tr)
		n++
		s.add(out)
		if out.failure == "" {
			outs = append(outs, out)
			tracedOps = append(tracedOps, out.opCPU...)
		}
	}
	m = layerMetrics(tr.spans, outs)
	m["trace.overhead_frac"] = metric{ratio(median(tracedOps), median(base)) - 1, "ratio"}
	gcFrac := 0.0
	if d := g1.totalCPU - g0.totalCPU; d > 0 {
		gcFrac = (g1.gcCPU - g0.gcCPU) / d
	}
	m["go.gc_cpu_frac"] = metric{gcFrac, "ratio"}
	m["go.heap_peak_mb"] = metric{float64(peak) / 1e6, "MB"}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, s, err
	}
	if err := tr.write(filepath.Join(outDir, tag+".spans.jsonl")); err != nil {
		return nil, s, err
	}
	f, err := os.Create(filepath.Join(outDir, tag+".trace.json"))
	if err != nil {
		return nil, s, err
	}
	if err := tr.rec.WriteTrace(f, "cpubench"); err != nil {
		f.Close()
		return nil, s, err
	}
	return m, s, f.Close()
}

// layerKey identifies one cell within one op.
type layerKey struct {
	op   int
	cell string
}

// layerMetrics derives the per-layer metrics from the traced passes'
// spans (self times) and exact counts. Cell timings are medians over
// cells; a layer a workload never enters reports 0.
func layerMetrics(spans []span, outs []passOut) map[string]metric {
	self := selfCPU(spans)
	byID := func(id int) span { return spans[id-1] }

	hook := map[layerKey]float64{}
	layers := map[layerKey]map[string]float64{}
	walls := map[string][]float64{}
	var engineRun [2]float64 // run CPU ns: [interp, jit]
	var passDispatch []float64
	cellsUnder := map[int]int{}
	for _, s := range spans {
		if s.Name == "cell" {
			cellsUnder[s.Parent]++
		}
	}
	for i, s := range spans {
		k := layerKey{s.Op, s.Cell}
		switch s.Name {
		case "cell":
			hook[k] = float64(self[i])
		case "pass":
			if c := cellsUnder[s.ID]; c > 0 {
				passDispatch = append(passDispatch, float64(self[i])/float64(c))
			}
		case "build", "prepare", "load", "run", "key", "get", "decode", "encode", "put":
			parent := byID(s.Parent)
			if s.Name == "run" {
				engineRun[engineOf(parent.Name)] += float64(self[i])
			}
			if strings.HasPrefix(parent.Name, "alt.") {
				continue
			}
			if layers[k] == nil {
				layers[k] = map[string]float64{}
			}
			layers[k][s.Name] += float64(self[i])
			walls[s.Name] = append(walls[s.Name], float64(s.wall()))
		}
	}
	per := map[string][]float64{}
	var overhead []float64
	for k, l := range layers {
		for name, v := range l {
			per[name] = append(per[name], v)
		}
		if _, ok := l["run"]; ok {
			per["run."+agentOf(k.cell)] = append(per["run."+agentOf(k.cell)], l["run"])
		}
		if h, ok := hook[k]; ok {
			overhead = append(overhead, h-l["build"]-l["prepare"]-l["load"]-l["run"])
		}
	}
	ms := func(xs []float64) float64 { return median(xs) / 1e6 }
	us := func(xs []float64) float64 { return median(xs) / 1e3 }
	m := map[string]metric{
		"workloads.build_ms":       {ms(per["build"]), "ms"},
		"agents.prepare_ms":        {ms(per["prepare"]), "ms"},
		"vm.load_ms":               {ms(per["load"]), "ms"},
		"vm.run_ms.none":           {ms(per["run.none"]), "ms"},
		"vm.run_ms.spa":            {ms(per["run.spa"]), "ms"},
		"vm.run_ms.ipa":            {ms(per["run.ipa"]), "ms"},
		"harness.cell_overhead_ms": {ms(overhead), "ms"},
		"runner.dispatch_us":       {us(passDispatch), "us"},
		"checkpoint.cellkey_us":    {us(per["key"]), "us"},
		"resultcache.get_us":       {us(per["get"]), "us"},
		"resultcache.get_wall_us":  {us(walls["get"]), "us"},
		"harness.decode_us":        {us(per["decode"]), "us"},
		"checkpoint.encode_us":     {us(per["encode"]), "us"},
		"resultcache.put_us":       {us(per["put"]), "us"},
		"resultcache.put_wall_us":  {us(walls["put"]), "us"},
		"jit.speedup":              {ratio(engineRun[0], engineRun[1]), "ratio"},
	}
	var hits, lookups uint64
	var sum simCounts
	for _, o := range outs {
		hits += o.hits
		lookups += o.lookups
		sum.add(o.counts)
	}
	for _, pc := range passCounts(sum, len(outs)) {
		m[pc.name] = metric{pc.v, pc.unit}
	}
	m["resultcache.hit_ratio"] = metric{ratio(float64(hits), float64(lookups)), "ratio"}
	var mainRun float64
	for _, v := range per["run"] {
		mainRun += v
	}
	m["vm.ns_per_instr"] = metric{ratio(mainRun, float64(sum.instructions)), "ns"}
	return m
}

type passCount struct {
	name, unit string
	v          float64
}

// passCounts are the counts reported per layer: the mean per pass of
// what passes simulated, from the sum c over n passes. Paper-interp and
// campaign-jit simulate the same cells every pass, so theirs are exact
// per-pass counts; cache-rerun simulates only its rare misses.
func passCounts(c simCounts, n int) []passCount {
	per := func(v uint64) float64 { return ratio(float64(v), float64(n)) }
	return []passCount{
		{"jit.methods_compiled", "count", per(c.tier.MethodsCompiled)},
		{"jit.compiled_frames", "count", per(c.tier.CompiledFrames)},
		{"jit.deopt_frames", "count", per(c.tier.DeoptFrames)},
		{"jit.inlined_calls", "count", per(c.tier.InlinedCalls)},
		{"jit.osr_entries", "count", per(c.tier.OSREntries)},
		{"jit.superinstr_pairs", "count", per(c.tier.SuperinstrPairs)},
		{"jit.deopt_ratio", "ratio", ratio(float64(c.tier.DeoptFrames), float64(c.tier.CompiledFrames))},
		{"vm.gc_minor", "count", per(c.gc.MinorGCs)},
		{"vm.gc_major", "count", per(c.gc.MajorGCs)},
		{"vm.gc_pause_mcycles", "Mcycles", per(c.gc.GCCycles) / 1e6},
		{"jni.calls", "count", per(c.jniCalls)},
		{"vm.native_calls", "count", per(c.nativeCalls)},
		{"sim.mcycles", "Mcycles", per(c.cycles) / 1e6},
		{"sim.instructions", "count", per(c.instructions)},
	}
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(b) {
		return 0
	}
	return a / b
}

// engineOf maps a replay container name ("replay.jit", "alt.interp") to
// its engine index: 0 interp, 1 jit.
func engineOf(container string) int {
	if strings.HasSuffix(container, ".jit") {
		return 1
	}
	return 0
}

// agentOf is the agent part of a cell name ("compress/ipa").
func agentOf(cell string) string {
	return cell[strings.LastIndexByte(cell, '/')+1:]
}

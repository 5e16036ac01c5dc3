// Command jvmsim runs scenarios on the simulated JVM — by default without
// a profiling agent — and prints execution statistics, or disassembles
// the generated classes with -dump.
//
// Usage:
//
//	jvmsim [-agent NAME] [-engine interp|jit|auto] [-scenario FILE]
//	       [-heap-nursery W] [-heap-tenured W] [-heap-tenure-age N] [-heap-limit W]
//	       [-scale K] [-parallel N] [-tierstats]
//	       [-cell-timeout D] [-max-retries N] [-retry-seed S]
//	       [-cache-dir DIR] [-cache off|ro|rw] [-cache-verify N] [-cache-max-mb MB]
//	       [-trace FILE] [-metrics FILE]
//	       [-cpuprofile F] [-memprofile F] [-dump|-instrmix]
//	       <scenario|family>... | all
//	jvmsim doctor [-format text|json] [-cache-dir DIR]
//	              [-trace FILE] [-metrics FILE]
//	jvmsim search [-budget N] [-seed S] [-oracle NAME] [-stop N]
//	              [-format text|json] [-out DIR] [-scenario FILE]
//	jvmsim search -record ziptool|jdkapp [-o FILE]
//	jvmsim search -replay FILE...
//
// Arguments name registered scenarios, scenario families ("paper",
// "gc-heavy", ...) or the word "all"; -scenario loads a declarative JSON
// scenario file into the registry first. Runs execute concurrently on
// isolated VMs, -parallel at a time, with output in argument order.
// -agent attaches a profiling agent and appends its report summary (the
// default "none" keeps the bare-JVM behaviour). -engine selects the
// execution tier (interp, jit, auto); every simulated statistic is
// byte-identical across engines, and -tierstats appends the tier's
// host-side bookkeeping (promotions, compiled frames, deopts) per run.
// -dump and -instrmix are static analyses and always run sequentially.
//
// -trace writes a Chrome trace_event JSON timeline of the run (loadable
// in Perfetto) and -metrics dumps the per-family metrics registry; both
// are host-side observability that never changes stdout — see
// docs/observability.md.
//
// -cpuprofile and -memprofile write pprof profiles of the simulator
// itself (not the simulated workload), the entry point for performance
// work on the engine: `jvmsim -cpuprofile cpu.out all` then
// `go tool pprof cpu.out`.
//
// Fault tolerance (see docs/robustness.md): a cell that panics, exceeds
// -cell-timeout or fails does not abort the batch — its error is
// reported in place and the process exits with code 3 (partial).
//
// -cache-dir (default $JVMSIM_CACHE) points at the persistent
// content-addressed result cache (see docs/caching.md): a warm rerun
// serves finished cells from disk byte-identically and prints a stats
// trailer on stderr; identical cells appearing more than once in one
// invocation execute exactly once. The cache is also the crash-resume
// store: a killed run re-run with the same -cache-dir runs only the
// cells it had not finished, producing byte-identical output.
// -cache-verify N re-executes a deterministic 1-in-N sample of hits and
// fails loudly on mismatch. The `doctor` subcommand checks the
// installation (toolchain, registry, heap specs, cache-dir health,
// benchmark baseline) and exits non-zero on failure.
//
// The `search` subcommand is the adversarial differential scenario
// search (see docs/scenario-search.md): it mutates phase workloads under
// a fixed seed and budget, judges each candidate with differential
// oracles (engines, dispatch loops, GC configurations), minimizes any
// divergence and writes it as a pinned regression scenario. -record
// compiles a real-program trace into a scenario file; -replay re-checks
// found scenarios against their pins.
//
// Exit codes: 0 complete, 1 fatal, 2 usage, 3 partial; `search` adds
// 4 (divergence found).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/agents/registry"
	"repro/internal/bytecode"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/harness"
	"repro/internal/jit"
	"repro/internal/resultcache"
	"repro/internal/runner"
	"repro/internal/scenarios"
	"repro/internal/telemetry"
	"repro/internal/vm"
	"repro/internal/workloads"
)

func main() {
	// JVMSIM_DEFECT arms a named test-only engine defect (see
	// internal/jit/defect.go) for the whole process — the hook the search
	// acceptance tests use to prove `jvmsim search` finds real bugs.
	if d := os.Getenv(jit.DefectEnvVar); d != "" {
		if err := jit.SetTestDefect(d); err != nil {
			fatal(err)
		}
	}
	if len(os.Args) > 1 && os.Args[1] == "doctor" {
		os.Exit(runDoctor(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "search" {
		os.Exit(runSearch(os.Args[2:]))
	}
	agentName := registry.AddFlag(flag.CommandLine, "none")
	engineName := jit.AddEngineFlag(flag.CommandLine)
	heapFlags := vm.AddHeapFlags(flag.CommandLine)
	scale := flag.Int("scale", 1, "iteration divisor")
	tierStats := flag.Bool("tierstats", false, "append the execution tier's host-side statistics per run")
	dump := flag.Bool("dump", false, "disassemble the generated classes instead of running")
	instrmix := flag.Bool("instrmix", false, "print static instruction-mix metrics instead of running")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the simulator to `file`")
	memprofile := flag.String("memprofile", "", "write a heap profile of the simulator to `file`")
	scenarioFile := scenarios.AddFlag(flag.CommandLine)
	parallel := runner.AddFlag(flag.CommandLine)
	robust := runner.AddRobustFlags(flag.CommandLine)
	cacheFlags := resultcache.AddFlags(flag.CommandLine)
	telFlags := telemetry.AddFlags(flag.CommandLine)
	flag.Parse()
	if flag.NArg() < 1 {
		// Before profile setup: os.Exit skips the deferred profile writers.
		fmt.Fprintln(os.Stderr, "usage: jvmsim [-agent NAME] [-engine NAME] [-scenario FILE] [-scale K] [-parallel N] [-tierstats] [-trace F] [-metrics F] [-cpuprofile F] [-memprofile F] [-dump|-instrmix] <scenario|family>... | all")
		os.Exit(2)
	}
	if err := scenarios.LoadIfSet(*scenarioFile); err != nil {
		fatal(err)
	}
	if err := registry.Validate(*agentName); err != nil {
		fatal(err)
	}
	engine, err := jit.ParseEngine(*engineName)
	if err != nil {
		fatal(err)
	}
	scns, err := scenarios.Resolve(flag.Args())
	if err != nil {
		fatal(err)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	memProfilePath = *memprofile
	if *memprofile != "" {
		defer writeMemProfile()
	}

	if *instrmix || *dump {
		// Static analyses never run the program, so an agent, engine or
		// tier-stats selection would be dropped silently — reject them
		// like tables rejects inapplicable flag combinations.
		if *agentName != "none" {
			fatal(fmt.Errorf("-agent does not apply to -dump/-instrmix (static analyses never run the program)"))
		}
		if engine != jit.EngineInterp || *tierStats {
			fatal(fmt.Errorf("-engine/-tierstats do not apply to -dump/-instrmix (static analyses never run the program)"))
		}
		for _, s := range scns {
			prog, err := workloads.BuildWorkload(s.Workload.Scale(*scale))
			if err != nil {
				fatal(err)
			}
			if *instrmix {
				if err := printInstrMix(prog); err != nil {
					fatal(err)
				}
			} else {
				if err := printDump(prog); err != nil {
					fatal(err)
				}
			}
		}
		return
	}

	opts := vm.DefaultOptions()
	opts.Tier = engine
	if err := heapFlags.Apply(&opts); err != nil {
		fatal(err)
	}
	registry.TuneOptions(*agentName, &opts)

	injector, err := faultinject.FromEnv()
	if err != nil {
		fatal(err)
	}
	tel := telFlags.Open()
	sum := telemetry.NewSummary("jvmsim", os.Stderr)
	// Opened after the static-analysis paths so -dump/-instrmix never
	// create or stamp a cache directory they will not use.
	cache, err := cacheFlags.Open()
	if err != nil {
		fatal(err)
	}
	cache.SetTelemetry(tel)
	memo := new(resultcache.Memo)

	ropts := runner.Options{
		Parallelism: *parallel,
		EmitFailed:  true,
		Hook:        injector.Hook(),
		Telemetry:   tel,
	}
	robust.Apply(&ropts)
	cells := make([]runner.Cell[string], len(scns))
	for i, s := range scns {
		s := s
		cells[i] = runner.Cell[string]{
			Key:   s.Name() + "/" + *agentName,
			Group: s.Family,
			Do: func(ctx context.Context) (string, error) {
				return runCell(ctx, s, *agentName, *scale, opts, *tierStats,
					cache, cacheFlags.VerifyN(), memo, tel)
			},
		}
	}
	results, err := runner.Run(context.Background(), ropts, cells)
	failed := 0
	for i, r := range results {
		if i > 0 {
			fmt.Println()
		}
		tel.Count(cells[i].Group, telemetry.MetricCells, 1)
		if r.Err != nil {
			failed++
			tel.Count(cells[i].Group, telemetry.MetricCellsFailed, 1)
			fmt.Printf("benchmark %s\n  FAILED: %v\n", r.Key, r.Err)
			continue
		}
		fmt.Print(r.Value)
	}
	cache.Finish(sum)
	telFlags.Finish(tel, sum)
	if failed > 0 {
		// Cell failures are already reported in place; the batch error is
		// their FirstError, so the partial exit subsumes it.
		sum.Partial(failed, len(results))
		exit(harness.ExitPartial)
	}
	if err != nil {
		fatal(err)
	}
}

// runCell resolves one scenario cell through the result cache: a hit
// (or an identical cell of this invocation) serves the canonical
// rendered text, anything else runs it. Every source serves the same
// payload, so the rendered output is byte-identical however the cell
// was resolved.
func runCell(ctx context.Context, s scenarios.Scenario, agentName string, scale int,
	opts vm.Options, tierStats bool, cache *resultcache.Cache, verifyN int,
	memo *resultcache.Memo, tel *telemetry.Recorder) (string, error) {
	if tel != nil {
		var span *telemetry.Span
		ctx, span = tel.StartSpan(ctx, telemetry.CatCampaign, "cell")
		if span != nil {
			span.Arg("cell", s.Name()+"/"+agentName).Arg("family", s.Family)
		}
		start := time.Now()
		defer func() {
			tel.Observe(s.Family, telemetry.MetricCellWallNanos,
				float64(time.Since(start).Nanoseconds()))
			span.End()
		}()
	}
	key, err := cellKey(s, agentName, scale, opts, tierStats)
	if err != nil {
		return "", err
	}
	var text string
	_, err = cache.Resolve(memo, key, verifyN, &text, func() (json.RawMessage, error) {
		out, err := runOne(ctx, s, agentName, scale, opts, tierStats)
		if err != nil {
			return nil, err
		}
		return checkpoint.CanonicalPayload(out)
	})
	if err != nil {
		return "", err
	}
	return text, nil
}

// cellKey derives the content-addressed key for one cell: the scenario's
// full content identity (not just its name, so a re-edited -scenario
// file can never alias a stale entry) under everything that shapes the
// output. The payload-kind discriminator keeps jvmsim's rendered-text
// payloads from ever colliding with the harness's Measurement payloads
// in a shared cache directory.
func cellKey(s scenarios.Scenario, agentName string, scale int, opts vm.Options, tierStats bool) (string, error) {
	s.ApplyHeap(&opts)
	return checkpoint.CellKey(struct {
		scenarios.Identity
		Agent     string     `json:"agent"`
		Opts      vm.Options `json:"opts"`
		Scale     int        `json:"scale"`
		TierStats bool       `json:"tierStats"`
		Kind      string     `json:"payloadKind"`
	}{s.Identity(), agentName, opts, scale, tierStats, "jvmsim-rendered"})
}

// exit flushes the deferred profile writers before terminating with the
// given code (fatal's contract, without the error message).
func exit(code int) {
	pprof.StopCPUProfile()
	writeMemProfile()
	os.Exit(code)
}

// runOne executes one scenario on its own VM and renders its statistics,
// with the agent's report summary appended when one is attached and the
// tier's host-side bookkeeping when -tierstats asked for it.
func runOne(ctx context.Context, s scenarios.Scenario, agentName string, scale int, opts vm.Options, tierStats bool) (string, error) {
	prog, err := workloads.BuildWorkload(s.Workload.Scale(scale))
	if err != nil {
		return "", err
	}
	agent, err := registry.New(agentName, registry.Config{})
	if err != nil {
		return "", err
	}
	s.ApplyHeap(&opts)
	res, err := core.RunContext(ctx, prog, agent, opts)
	if err != nil {
		return "", err
	}
	var out strings.Builder
	fmt.Fprintf(&out, "benchmark %s\n", res.Program)
	fmt.Fprintf(&out, "  main result:       %d\n", res.MainResult)
	fmt.Fprintf(&out, "  total cycles:      %d\n", res.TotalCycles)
	fmt.Fprintf(&out, "  threads:           %d\n", res.Threads)
	fmt.Fprintf(&out, "  JIT compiled:      %d methods\n", res.JITCompiled)
	fmt.Fprintf(&out, "  native fraction:   %.2f%%\n", res.Truth.NativeFraction()*100)
	fmt.Fprintf(&out, "  native calls:      %d\n", res.Truth.NativeMethodCalls)
	fmt.Fprintf(&out, "  JNI calls:         %d\n", res.Truth.JNICalls)
	fmt.Fprintf(&out, "  heap:              %d arrays / %d words allocated, %d collected, %d live\n",
		res.GC.AllocatedArrays, res.GC.AllocatedWords, res.GC.CollectedArrays, res.GC.LiveArrays())
	if res.GC.Collections() > 0 {
		fmt.Fprintf(&out, "  GC:                %d minor, %d major, %d tenured, %d pause cycles\n",
			res.GC.MinorGCs, res.GC.MajorGCs, res.GC.TenurePromotions, res.GC.GCCycles)
	}
	if res.Ops > 0 {
		fmt.Fprintf(&out, "  throughput:        %.1f ops/Mcycles\n", res.Throughput())
	}
	if res.Report != nil {
		fmt.Fprintf(&out, "  agent %s:          %.2f%% native measured\n",
			res.Report.AgentName, res.Report.NativeFraction()*100)
	}
	if tierStats {
		ts := res.Tier
		fmt.Fprintf(&out, "  tier %s: %d methods compiled, %d compiled frames, %d deopts, %d fallback chunks, %d invalidated, %d compile failures\n",
			ts.Engine, ts.MethodsCompiled, ts.CompiledFrames, ts.DeoptFrames,
			ts.FallbackChunks, ts.UnitsInvalidated, ts.CompileFailures)
		out.WriteString(ts.RenderTier2("  "))
	}
	return out.String(), nil
}

func printInstrMix(prog *core.Program) error {
	total := make(bytecode.Histogram)
	for _, c := range prog.Classes {
		cm, err := bytecode.AnalyzeClass(c)
		if err != nil {
			return err
		}
		fmt.Printf("class %s: %d methods (%d native), %d instructions, %d basic blocks\n",
			cm.Name, cm.Methods, cm.NativeMethods, cm.Instructions, cm.BasicBlocks)
		h, err := bytecode.ClassHistogram(c)
		if err != nil {
			return err
		}
		total.Add(h)
	}
	fmt.Println("instruction mix:")
	fmt.Print(total.String())
	return nil
}

func printDump(prog *core.Program) error {
	for _, c := range prog.Classes {
		fmt.Printf("class %s (source %s)\n", c.Name, c.SourceFile)
		for _, m := range c.Methods {
			fmt.Printf(" method %s%s flags=%#x maxStack=%d maxLocals=%d\n",
				m.Name, m.Desc, m.Flags, m.MaxStack, m.MaxLocals)
			text, err := bytecode.Disassemble(m)
			if err != nil {
				return err
			}
			fmt.Print(text)
		}
	}
	return nil
}

// memProfilePath is the -memprofile destination, kept package-level so
// fatal can write the profile despite os.Exit skipping main's defers.
var memProfilePath string

// writeMemProfile dumps the heap profile to -memprofile, if requested.
func writeMemProfile() {
	if memProfilePath == "" {
		return
	}
	f, err := os.Create(memProfilePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jvmsim:", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "jvmsim:", err)
	}
}

func fatal(err error) {
	// os.Exit skips deferred profile writers; flush both profiles here so
	// -cpuprofile/-memprofile files are usable even when the run fails
	// (no-ops when profiling is off).
	pprof.StopCPUProfile()
	writeMemProfile()
	fmt.Fprintln(os.Stderr, "jvmsim:", err)
	os.Exit(1)
}

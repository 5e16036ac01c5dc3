// Command jvmsim runs scenarios on the simulated JVM — by default without
// a profiling agent — and prints execution statistics, or disassembles
// the generated classes with -dump.
//
// Usage:
//
//	jvmsim [shared flags] [-tierstats] [-cpuprofile F] [-memprofile F]
//	       [-dump|-instrmix] <scenario|family>... | all
//	jvmsim doctor [-format text|json] [-cache-dir DIR]
//	              [-trace FILE] [-metrics FILE]
//	jvmsim dashboard -metrics FILE [-o FILE] [-html FILE]
//	jvmsim search [-budget N] [-seed S] [-oracle NAME] [-stop N]
//	              [-format text|json] [-out DIR] [-scenario FILE]
//	              [-trace FILE] [-metrics FILE]
//	jvmsim search -record ziptool|jdkapp [-o FILE]
//	jvmsim search -replay FILE...
//
// The shared flags (-agent, -engine, -heap-*, -scenario, -scale,
// -parallel, -cell-timeout, -max-retries, the -cache* flags, -trace and
// -metrics) are the same in jvmsim, jprof and tables; the "Shared flags"
// table of docs/robustness.md describes them. The default agent is none.
//
// Arguments name registered scenarios, scenario families ("paper",
// "gc-heavy", ...) or the word "all". Runs execute concurrently on
// isolated VMs, with output in argument order; a failed cell is reported
// in place. -agent attaches a profiling agent and appends its report
// summary (the default "none" keeps the bare-JVM behaviour). Every
// simulated statistic is byte-identical across engines, and -tierstats
// appends the tier's host-side bookkeeping (promotions, compiled frames,
// deopts) per run. -dump and -instrmix are static analyses: they run
// sequentially and reject the flags that act only on running cells.
//
// -cpuprofile and -memprofile write pprof profiles of the simulator
// itself (not the simulated workload), the entry point for performance
// work on the engine: `jvmsim -cpuprofile cpu.out all` then
// `go tool pprof cpu.out`.
//
// The `doctor` subcommand checks the installation (toolchain, registry,
// heap specs, cache-dir health, telemetry output paths) and exits
// non-zero on failure. The `dashboard` subcommand renders a -metrics
// dump as per-family text panels and, with -html, a self-contained HTML
// page (see docs/observability.md).
//
// The `search` subcommand is the adversarial differential scenario
// search (see docs/scenario-search.md): it mutates phase workloads under
// a fixed seed and budget, judges each candidate with differential
// oracles (engines, dispatch loops, GC configurations), minimizes any
// divergence and writes it as a pinned regression scenario. -record
// compiles a real-program trace into a scenario file; -replay re-checks
// found scenarios against their pins.
//
// Exit codes (docs/robustness.md): 0 complete, 1 fatal, 2 usage,
// 3 partial; `search` adds 4 (divergence found).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/agents/registry"
	"repro/internal/bytecode"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/jit"
	"repro/internal/scenarios"
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
	if len(os.Args) > 1 && os.Args[1] == "dashboard" {
		os.Exit(runDashboard(os.Args[2:]))
	}
	f := cli.Register(flag.CommandLine, "jvmsim")
	tierStats := flag.Bool("tierstats", false, "append the execution tier's host-side statistics per run")
	dump := flag.Bool("dump", false, "disassemble the generated classes instead of running")
	instrmix := flag.Bool("instrmix", false, "print static instruction-mix metrics instead of running")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the simulator to `file`")
	memprofile := flag.String("memprofile", "", "write a heap profile of the simulator to `file`")
	flag.Parse()
	if flag.NArg() < 1 {
		// Before profile setup: os.Exit skips the deferred profile writers.
		fmt.Fprintln(os.Stderr, "usage: jvmsim [shared flags] [-tierstats] [-cpuprofile F] [-memprofile F] [-dump|-instrmix] <scenario|family>... | all")
		os.Exit(2)
	}
	if _, err := f.LoadScenarios(); err != nil {
		fatal(err)
	}
	scns, err := scenarios.Resolve(flag.Args())
	if err != nil {
		fatal(err)
	}
	if *cpuprofile != "" {
		out, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer out.Close()
		if err := pprof.StartCPUProfile(out); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	memProfilePath = *memprofile
	if *memprofile != "" {
		defer writeMemProfile()
	}

	if *instrmix || *dump {
		// Static analyses never run the program, so an agent, engine,
		// tier-stats or run-only selection would be dropped silently —
		// reject them like tables rejects inapplicable flag combinations.
		// The cache is never opened, so these modes never create or stamp
		// a cache directory.
		if f.Agent != "none" {
			fatal(fmt.Errorf("-agent does not apply to -dump/-instrmix (static analyses never run the program)"))
		}
		if f.Engine != "interp" || *tierStats {
			fatal(fmt.Errorf("-engine/-tierstats do not apply to -dump/-instrmix (static analyses never run the program)"))
		}
		if err := f.RejectRunFlags("-dump/-instrmix"); err != nil {
			fatal(err)
		}
		for _, s := range scns {
			prog, err := workloads.BuildWorkload(s.Workload.Scale(f.Scale))
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

	cfg, err := f.Open()
	if err != nil {
		fatal(err)
	}
	exit(f.RunCells(scns, renderer(f.Agent, cfg.Scale, *tierStats)))
}

// cellKey is the identity a jvmsim cell's cache key hashes: the
// scenario's full content identity (not just its name, so a re-edited
// -scenario file can never alias a stale entry) under everything that
// shapes the output, with the jvmsim-rendered payload kind.
type cellKey struct {
	scenarios.Identity
	Agent     string     `json:"agent"`
	Opts      vm.Options `json:"opts"`
	Scale     int        `json:"scale"`
	TierStats bool       `json:"tierStats"`
	Kind      string     `json:"payloadKind"`
}

// renderer is jvmsim's rendered cell: runOne's statistics text under
// a cellKey.
func renderer(agentName string, scale int, tierStats bool) cli.Renderer {
	return cli.Renderer{
		Key: func(s scenarios.Scenario, opts vm.Options) any {
			return cellKey{s.Identity(), agentName, opts, scale, tierStats, "jvmsim-rendered"}
		},
		Render: func(ctx context.Context, s scenarios.Scenario, opts vm.Options) (string, error) {
			return runOne(ctx, s, agentName, scale, opts, tierStats)
		},
		Failed:    "benchmark %s\n  FAILED: %v\n",
		Separator: "\n",
	}
}

// exit flushes the deferred profile writers before terminating with the
// given code (fatal's contract, without the error message).
func exit(code int) {
	pprof.StopCPUProfile()
	writeMemProfile()
	os.Exit(code)
}

// runOne executes one scenario on its own VM under opts (the scenario's
// heap spec already applied) and renders its statistics, with the
// agent's report summary appended when one is attached and the tier's
// host-side bookkeeping when -tierstats asked for it.
func runOne(ctx context.Context, s scenarios.Scenario, agentName string, scale int, opts vm.Options, tierStats bool) (string, error) {
	prog, err := workloads.BuildWorkload(s.Workload.Scale(scale))
	if err != nil {
		return "", err
	}
	agent, err := registry.New(agentName, registry.Config{})
	if err != nil {
		return "", err
	}
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
		fmt.Fprintf(&out, "  tier %s: %d methods compiled, %d compiled frames, %d deopts, %d fallback chunks, %d compile failures\n",
			ts.Engine, ts.MethodsCompiled, ts.CompiledFrames, ts.DeoptFrames,
			ts.FallbackChunks, ts.CompileFailures)
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

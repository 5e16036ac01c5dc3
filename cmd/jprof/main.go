// Command jprof profiles scenarios with one of the paper's agents and
// prints the resulting reports — the command-line face of the system,
// analogous to running a JVM with -agentlib:spa or -agentlib:ipa.
//
// Usage:
//
//	jprof [-agent spa|ipa|chains|sampler|bic|aprof|none] [-engine interp|jit|auto]
//	      [-scenario FILE] [-heap-nursery W] [-heap-tenured W] [-heap-tenure-age N]
//	      [-heap-limit W] [-scale K] [-parallel N] [-tierstats] [-list]
//	      [-cell-timeout D] [-max-retries N] [-retry-seed S]
//	      [-cache-dir DIR] [-cache off|ro|rw] [-cache-verify N]
//	      [-cache-max-mb MB] [-cellstats] [-trace FILE] [-metrics FILE]
//	      <scenario|family>... | all
//
// A cell that panics, exceeds -cell-timeout or fails is reported in
// place without aborting the batch; the process then exits with code 3
// (partial). See docs/robustness.md for the exit-code contract.
//
// Arguments name registered scenarios ("compress", "gc-churn"),
// scenario families ("paper", "gc-heavy", "exception-heavy",
// "deep-chains", "contended") or the word "all"; -scenario loads a
// declarative JSON scenario file into the registry first. Cells run
// concurrently on isolated VMs, -parallel at a time, and the reports are
// printed in argument order. With -agent none the scenario runs
// uninstrumented and only the engine's ground-truth attribution is
// printed. The chains agent additionally prints the hottest mixed
// Java/native call chains; the sampler agent demonstrates the
// related-work PC-sampling baseline.
//
// -cache-dir (default $JVMSIM_CACHE) points at the persistent
// content-addressed result cache (see docs/caching.md): a warm rerun
// serves reports from disk byte-identically and prints a stats trailer
// on stderr. -cache-verify N re-executes a deterministic 1-in-N sample
// of hits and fails loudly on mismatch. -cellstats appends each
// result's host-side production cost (never part of cached payloads);
// with -json it becomes a trailing {"host":...} object after the
// report, keeping the report itself engine-independent.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/agents/aprof"
	"repro/internal/agents/bic"
	"repro/internal/agents/chains"
	"repro/internal/agents/ipa"
	"repro/internal/agents/registry"
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
	agentName := registry.AddFlag(flag.CommandLine, "ipa")
	engineName := jit.AddEngineFlag(flag.CommandLine)
	heapFlags := vm.AddHeapFlags(flag.CommandLine)
	scale := flag.Int("scale", 1, "iteration divisor (1 = full calibrated size)")
	list := flag.Bool("list", false, "list available scenarios and exit")
	asJSON := flag.Bool("json", false, "emit the results as JSON")
	perMethod := flag.Bool("permethod", false, "with -agent ipa: per-native-method breakdown")
	tierStats := flag.Bool("tierstats", false, "append the execution tier's host-side statistics per run")
	scenarioFile := scenarios.AddFlag(flag.CommandLine)
	parallel := runner.AddFlag(flag.CommandLine)
	robust := runner.AddRobustFlags(flag.CommandLine)
	cacheFlags := resultcache.AddFlags(flag.CommandLine)
	cellStats := flag.Bool("cellstats", false, "append each result's host-side production cost (wall time, allocations, source); with -json a trailing {\"host\":...} object")
	telFlags := telemetry.AddFlags(flag.CommandLine)
	flag.Parse()

	if err := scenarios.LoadIfSet(*scenarioFile); err != nil {
		fatal(err)
	}
	if *list {
		for _, n := range scenarios.Names() {
			fmt.Println(n)
		}
		return
	}
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: jprof [-agent NAME] [-engine NAME] [-scenario FILE] [-scale K] [-parallel N] [-tierstats] <scenario|family>... | all")
		os.Exit(2)
	}
	if err := registry.Validate(*agentName); err != nil {
		fatal(err)
	}
	engine, err := jit.ParseEngine(*engineName)
	if err != nil {
		fatal(err)
	}
	// The JSON report is a stable engine-independent serialization (the
	// cross-engine byte-identity checks diff it); host-side tier stats
	// have no place in it, so reject the combination instead of silently
	// dropping the flag.
	if *tierStats && *asJSON {
		fatal(fmt.Errorf("-tierstats does not apply to -json (the JSON report is engine-independent by design)"))
	}

	scns, err := scenarios.Resolve(flag.Args())
	if err != nil {
		fatal(err)
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
	cache, err := cacheFlags.Open()
	if err != nil {
		fatal(err)
	}
	tel := telFlags.Open()
	sum := telemetry.NewSummary("jprof", os.Stderr)
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
				return profileCell(ctx, s, *agentName, *scale, opts,
					*asJSON, *perMethod, *tierStats, *cellStats,
					cache, cacheFlags.VerifyN(), memo, tel)
			},
		}
	}
	results, err := runner.Run(context.Background(), ropts, cells)
	failed := 0
	for i, r := range results {
		if i > 0 && !*asJSON {
			fmt.Println()
		}
		tel.Count(cells[i].Group, telemetry.MetricCells, 1)
		if r.Err != nil {
			failed++
			tel.Count(cells[i].Group, telemetry.MetricCellsFailed, 1)
			fmt.Printf("benchmark %s: FAILED: %v\n", r.Key, r.Err)
			continue
		}
		fmt.Print(r.Value)
	}
	if cache != nil {
		if cerr := cache.Close(); cerr != nil {
			sum.Error(cerr)
		}
		sum.Stat(cache.Stats())
	}
	telFlags.Finish(tel, sum)
	if failed > 0 {
		// Cell failures are already reported in place; the batch error is
		// their FirstError, so the partial exit subsumes it.
		sum.Partial(failed, len(results))
		os.Exit(harness.ExitPartial)
	}
	if err != nil {
		fatal(err)
	}
}

// profileKey derives the content-addressed cache key for one report: the
// scenario's full content identity under every flag that shapes the
// rendered bytes, plus a payload-kind discriminator so jprof reports
// never collide with other tools' payloads in a shared cache directory.
func profileKey(s scenarios.Scenario, agentName string, scale int, opts vm.Options,
	asJSON, perMethod, tierStats bool) (string, error) {
	s.ApplyHeap(&opts)
	return checkpoint.CellKey(struct {
		scenarios.Identity
		Agent     string     `json:"agent"`
		Opts      vm.Options `json:"opts"`
		Scale     int        `json:"scale"`
		JSON      bool       `json:"json"`
		PerMethod bool       `json:"perMethod"`
		TierStats bool       `json:"tierStats"`
		Kind      string     `json:"payloadKind"`
	}{s.Identity(), agentName, opts, scale, asJSON, perMethod, tierStats, "jprof-rendered"})
}

// profileCell resolves one report through the result cache and the
// in-process memo before falling back to a real profiling run. The
// cached payload is the rendered report alone; the -cellstats host-cost
// line (or trailing {"host":...} object with -json) is appended outside
// it, so cold and warm report bytes stay identical and the telemetry
// reflects how this invocation produced the result.
func profileCell(ctx context.Context, s scenarios.Scenario, agentName string, scale int,
	opts vm.Options, asJSON, perMethod, tierStats, cellStats bool,
	cache *resultcache.Cache, verifyN int, memo *resultcache.Memo,
	tel *telemetry.Recorder) (string, error) {
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
	var doneHost func(string) core.HostStats
	if cellStats {
		doneHost = core.StartHostMeasure()
	}
	finish := func(text, source string) (string, error) {
		if doneHost == nil {
			return text, nil
		}
		h := doneHost(source)
		if asJSON {
			var buf bytes.Buffer
			buf.WriteString(text)
			if err := core.WriteHostJSON(&buf, h); err != nil {
				return "", err
			}
			return buf.String(), nil
		}
		return text + "host: " + h.String() + "\n", nil
	}
	key, err := profileKey(s, agentName, scale, opts, asJSON, perMethod, tierStats)
	if err != nil {
		return "", err
	}
	decode := func(raw json.RawMessage, source string) (string, error) {
		var text string
		if err := json.Unmarshal(raw, &text); err != nil {
			return "", fmt.Errorf("corrupt %s payload for %s: %w", source, s.Name(), err)
		}
		return text, nil
	}
	execute := func() (json.RawMessage, error) {
		text, err := profileOne(ctx, s, agentName, scale, opts, asJSON, perMethod, tierStats)
		if err != nil {
			return nil, err
		}
		return checkpoint.CanonicalPayload(text)
	}
	var text string
	if raw, ok := cache.GetInto(key, &text); ok {
		source := "cache"
		if resultcache.VerifySample(key, verifyN) {
			fresh, err := execute()
			if err != nil {
				return "", err
			}
			// A passing Verify means fresh == raw, so text is fresh's text.
			if err := cache.Verify(key, raw, fresh); err != nil {
				return "", err
			}
			source = "verify"
		}
		return finish(text, source)
	}
	raw, shared, err := memo.Do(key, func() (json.RawMessage, error) {
		raw, err := execute()
		if err != nil {
			return nil, err
		}
		if err := cache.Put(key, raw); err != nil {
			// An unwritable cache is environmental, so retryable.
			return nil, runner.Transient(err)
		}
		return raw, nil
	})
	if err != nil {
		if !shared {
			return "", err
		}
		// A deduplicated sibling's failure (an injected fault, a timeout)
		// must stay its own: run this cell's attempt instead of inheriting
		// the error.
		if raw, err = execute(); err != nil {
			return "", err
		}
		shared = false
	}
	source := "run"
	if shared {
		cache.AddDeduped(1)
		source = "dedup"
	}
	text, err = decode(raw, "execution")
	if err != nil {
		return "", err
	}
	return finish(text, source)
}

// profileOne runs one scenario under a fresh agent on its own VM and
// renders the full report; rendering inside the cell keeps the output
// deterministic regardless of scheduling.
func profileOne(ctx context.Context, s scenarios.Scenario, agentName string, scale int,
	opts vm.Options, asJSON, perMethod, tierStats bool) (string, error) {
	prog, err := workloads.BuildWorkload(s.Workload.Scale(scale))
	if err != nil {
		return "", err
	}
	agent, err := registry.New(agentName, registry.Config{PerMethod: perMethod})
	if err != nil {
		return "", err
	}
	s.ApplyHeap(&opts)
	res, err := core.RunContext(ctx, prog, agent, opts)
	if err != nil {
		return "", err
	}
	if asJSON {
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			return "", err
		}
		return buf.String(), nil
	}
	out := renderRun(res, agent, perMethod)
	if tierStats {
		ts := res.Tier
		out += fmt.Sprintf("\ntier %s: %d methods compiled, %d compiled frames, %d deopts, %d fallback chunks, %d invalidated, %d compile failures\n",
			ts.Engine, ts.MethodsCompiled, ts.CompiledFrames, ts.DeoptFrames,
			ts.FallbackChunks, ts.UnitsInvalidated, ts.CompileFailures)
		out += ts.RenderTier2("")
	}
	return out, nil
}

// renderRun formats one run the way jprof always has, including the
// agent-specific extras for the chains, bic and per-method IPA agents.
func renderRun(res *core.RunResult, agent core.Agent, perMethod bool) string {
	var out strings.Builder
	fmt.Fprintf(&out, "benchmark %s: %d cycles, %d threads, %d JIT-compiled methods\n",
		res.Program, res.TotalCycles, res.Threads, res.JITCompiled)
	if res.Ops > 0 {
		fmt.Fprintf(&out, "throughput: %.1f ops/Mcycles\n", res.Throughput())
	}
	fmt.Fprintf(&out, "ground truth: %.2f%% native (bytecode=%d native=%d overhead=%d cycles)\n",
		res.Truth.NativeFraction()*100, res.Truth.BytecodeCycles,
		res.Truth.NativeCycles, res.Truth.OverheadCycles)
	fmt.Fprintf(&out, "ground truth counts: %d native method calls, %d JNI calls\n",
		res.Truth.NativeMethodCalls, res.Truth.JNICalls)
	if res.GC.Collections() > 0 {
		fmt.Fprintf(&out, "heap: %d/%d arrays collected (%d words), %d minor + %d major GCs, %d tenured, %d pause cycles\n",
			res.GC.CollectedArrays, res.GC.AllocatedArrays, res.GC.CollectedWords,
			res.GC.MinorGCs, res.GC.MajorGCs, res.GC.TenurePromotions, res.GC.GCCycles)
	}
	if res.Report != nil {
		out.WriteString("\n")
		out.WriteString(res.Report.String())
	}
	switch a := agent.(type) {
	case *aprof.Agent:
		out.WriteString("\nhottest allocation sites:\n")
		out.WriteString(a.RenderTop(10))
	case *chains.Agent:
		out.WriteString("\nhottest call chains:\n")
		out.WriteString(a.RenderTop(10))
	case *bic.Agent:
		fmt.Fprintf(&out, "\nbytecode instructions executed: %d (over %d basic-block entries)\n",
			a.Instructions(), a.Blocks())
		out.WriteString("note: an instruction counter reports nothing about native time.\n")
	case *ipa.Agent:
		if perMethod {
			out.WriteString("\nper-native-method breakdown:\n")
			for _, mt := range a.MethodTimes() {
				fmt.Fprintf(&out, "  %-40s %10d calls %14d cycles\n", mt.Name, mt.Calls, mt.Cycles)
			}
		}
	}
	return out.String()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "jprof:", err)
	os.Exit(1)
}

// Command jprof profiles scenarios with one of the paper's agents and
// prints the resulting reports — the command-line face of the system,
// analogous to running a JVM with -agentlib:spa or -agentlib:ipa.
//
// Usage:
//
//	jprof [shared flags] [-tierstats] [-list] [-json] [-permethod]
//	      [-cellstats] <scenario|family>... | all
//
// The shared flags (-agent, -engine, -heap-*, -scenario, -scale,
// -parallel, -cell-timeout, -max-retries, the -cache* flags, -trace and
// -metrics) are the same in jvmsim, jprof and tables; the "Shared flags"
// table of docs/robustness.md describes them. The default agent is ipa;
// the agents are spa, ipa, chains, sampler, bic, aprof and none.
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
// -cellstats appends each result's host-side production cost (never
// part of cached payloads); with -json it becomes a trailing
// {"host":...} object after the report, keeping the report itself
// engine-independent.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/agents/aprof"
	"repro/internal/agents/bic"
	"repro/internal/agents/chains"
	"repro/internal/agents/ipa"
	"repro/internal/agents/registry"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/scenarios"
	"repro/internal/vm"
	"repro/internal/workloads"
)

func main() {
	f := cli.Register(flag.CommandLine, "jprof")
	list := flag.Bool("list", false, "list available scenarios and exit")
	asJSON := flag.Bool("json", false, "emit the results as JSON")
	perMethod := flag.Bool("permethod", false, "with -agent ipa: per-native-method breakdown")
	tierStats := flag.Bool("tierstats", false, "append the execution tier's host-side statistics per run")
	cellStats := flag.Bool("cellstats", false, "append each result's host-side production cost (wall time, allocations, source); with -json a trailing {\"host\":...} object")
	flag.Parse()

	if _, err := f.LoadScenarios(); err != nil {
		fatal(err)
	}
	if *list {
		if _, err := f.Validate(); err != nil {
			fatal(err)
		}
		for _, n := range scenarios.Names() {
			fmt.Println(n)
		}
		return
	}
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: jprof [shared flags] [-tierstats] [-json] [-permethod] [-cellstats] <scenario|family>... | all")
		os.Exit(2)
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
	cfg, err := f.Open()
	if err != nil {
		fatal(err)
	}
	os.Exit(f.RunCells(scns, renderer(f.Agent, cfg.Scale, *asJSON, *perMethod, *tierStats, *cellStats)))
}

// profileKey is the identity a jprof report's cache key hashes: the
// scenario's full content identity under every flag that shapes the
// rendered bytes, with the jprof-rendered payload kind.
type profileKey struct {
	scenarios.Identity
	Agent     string     `json:"agent"`
	Opts      vm.Options `json:"opts"`
	Scale     int        `json:"scale"`
	JSON      bool       `json:"json"`
	PerMethod bool       `json:"perMethod"`
	TierStats bool       `json:"tierStats"`
	Kind      string     `json:"payloadKind"`
}

// renderer is jprof's rendered cell: profileOne's report under a
// profileKey. With -cellstats the host cost follows the report as a
// "host:" line, or with -json as a trailing {"host":...} object.
func renderer(agentName string, scale int, asJSON, perMethod, tierStats, cellStats bool) cli.Renderer {
	r := cli.Renderer{
		Key: func(s scenarios.Scenario, opts vm.Options) any {
			return profileKey{s.Identity(), agentName, opts, scale, asJSON, perMethod, tierStats, "jprof-rendered"}
		},
		Render: func(ctx context.Context, s scenarios.Scenario, opts vm.Options) (string, error) {
			return profileOne(ctx, s, agentName, scale, opts, asJSON, perMethod, tierStats)
		},
		Failed: "benchmark %s: FAILED: %v\n",
	}
	if !asJSON {
		r.Separator = "\n"
	}
	if cellStats {
		r.Host = func(text string, h core.HostStats) (string, error) {
			if !asJSON {
				return text + "host: " + h.String() + "\n", nil
			}
			var buf bytes.Buffer
			buf.WriteString(text)
			if err := core.WriteHostJSON(&buf, h); err != nil {
				return "", err
			}
			return buf.String(), nil
		}
	}
	return r
}

// profileOne runs one scenario under a fresh agent on its own VM, under
// opts with the scenario's heap spec already applied, and renders the
// full report; rendering inside the cell keeps the output
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
		out += fmt.Sprintf("\ntier %s: %d methods compiled, %d compiled frames, %d deopts, %d fallback chunks, %d compile failures\n",
			ts.Engine, ts.MethodsCompiled, ts.CompiledFrames, ts.DeoptFrames,
			ts.FallbackChunks, ts.CompileFailures)
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

// Command tables regenerates the paper's evaluation tables on the
// simulated JVM — Table I (execution time and profiling overhead for SPA
// and IPA) and Table II (profiling statistics produced by IPA) — and runs
// campaign measurements over any other scenario profile.
//
// Usage:
//
//	tables [-profile NAME] [-scenario FILE] [-agents LIST]
//	       [-engine interp|jit|auto] [-warmup N]
//	       [-heap-nursery W] [-heap-tenured W] [-heap-tenure-age N] [-heap-limit W]
//	       [-table 1|2|all] [-runs N] [-scale K] [-parallel N]
//	       [-cell-timeout D] [-max-retries N] [-retry-seed S]
//	       [-cache-dir DIR] [-cache off|ro|rw] [-cache-verify N]
//	       [-cache-max-mb MB] [-cellstats] [-trace FILE] [-metrics FILE]
//
// -engine selects the execution tier every measurement cell runs on;
// the rendered tables and campaign rows are byte-identical across
// engines (only wall-clock time changes). -warmup runs each cell that
// many discarded repetitions first — the warmup-aware form tier
// benchmarking wants.
//
// The default profile, "paper", renders the two tables exactly as the
// paper lays them out. Any other profile ("gc-heavy", "exception-heavy",
// "deep-chains", "contended", "custom", "all") runs the scenario × agent
// campaign instead, streaming one row per finished cell and finishing
// with each scenario's expected-value check verdict. -scenario loads a
// declarative scenario file into the registry first, so its entries are
// addressable by name or via the "custom" (or their declared) family.
//
// -runs is the median-of-N repetition count (the paper uses 15; the
// simulator is deterministic, so 1 gives identical numbers faster).
// -scale divides every benchmark's iteration count; 1 is the calibrated
// full size. -parallel runs that many measurement cells concurrently on
// isolated VMs; the output is byte-identical at every parallelism level,
// only wall-clock time changes.
//
// Campaign profiles are fault-tolerant (see docs/robustness.md): a cell
// that panics, times out (-cell-timeout) or exhausts its retries
// (-max-retries) renders as a FAILED row and the process exits with
// code 3 (partial) instead of aborting the matrix. The paper tables keep
// their all-or-nothing contract — reference tables with holes would be
// misleading — so -profile paper still fails fast; -cell-timeout and
// -max-retries apply everywhere.
//
// -cache-dir (default $JVMSIM_CACHE) points at the persistent
// content-addressed result cache (see docs/caching.md): a warm rerun
// serves every cell from disk, byte-identical to a cold one, and prints
// a hits/misses stats trailer on stderr. It applies to every profile,
// paper included — a hit replays a complete cell, never a partial
// table — and it is also the crash-resume store: a killed run re-run
// with the same -cache-dir measures only the cells it had not finished,
// byte-identical to an uninterrupted run. -cache-verify N re-executes a
// deterministic 1-in-N sample of hits and fails loudly on any byte
// mismatch.
// -cellstats appends host-side wall-time/allocation/source columns to
// campaign rows; the telemetry is never part of cached payloads.
//
// -trace FILE writes a Chrome trace_event JSON timeline of the run and
// -metrics FILE dumps the per-family metrics registry (see
// docs/observability.md). Both are host-side observability only: the
// rendered tables and campaign rows stay byte-identical with telemetry
// on or off.
//
// Exit codes: 0 complete, 1 fatal (including check failures), 2 usage,
// 3 partial.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/agents/registry"
	"repro/internal/faultinject"
	"repro/internal/harness"
	"repro/internal/jit"
	"repro/internal/resultcache"
	"repro/internal/runner"
	"repro/internal/scenarios"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

func main() {
	table := flag.String("table", "all", "which paper table to regenerate: 1, 2 or all")
	runs := flag.Int("runs", 1, "repetitions per measurement (median reported)")
	scale := flag.Int("scale", 1, "iteration divisor (1 = full calibrated size)")
	warmup := flag.Int("warmup", 0, "discarded warmup repetitions per measurement cell")
	markdown := flag.Bool("markdown", false, "emit the full campaign as a Markdown report")
	verify := flag.Bool("verify", false, "verify the paper's qualitative claims and exit non-zero on failure")
	profile := flag.String("profile", "paper", "scenario profile to run (paper renders the paper tables; any other family or 'all' runs a campaign)")
	engineName := jit.AddEngineFlag(flag.CommandLine)
	heapFlags := vm.AddHeapFlags(flag.CommandLine)
	scenarioFile := scenarios.AddFlag(flag.CommandLine)
	agentList := registry.AddListFlag(flag.CommandLine, "none,spa,ipa")
	parallel := runner.AddFlag(flag.CommandLine)
	robust := runner.AddRobustFlags(flag.CommandLine)
	cacheFlags := resultcache.AddFlags(flag.CommandLine)
	cellStats := flag.Bool("cellstats", false, "append host-side wall-time/alloc/source columns to campaign rows (telemetry only, never cached)")
	telFlags := telemetry.AddFlags(flag.CommandLine)
	flag.Parse()

	engine, err := jit.ParseEngine(*engineName)
	if err != nil {
		fatal(err)
	}
	cfg := harness.DefaultConfig()
	cfg.Runs = *runs
	cfg.Scale = *scale
	cfg.Warmup = *warmup
	cfg.Parallelism = *parallel
	cfg.CellTimeout = *robust.CellTimeout
	cfg.MaxRetries = *robust.MaxRetries
	cfg.RetrySeed = *robust.RetrySeed
	cfg.Opts.Tier = engine
	if err := heapFlags.Apply(&cfg.Opts); err != nil {
		fatal(err)
	}
	injector, err := faultinject.FromEnv()
	if err != nil {
		fatal(err)
	}
	cfg.Hook = injector.Hook()
	cache, err := cacheFlags.Open()
	if err != nil {
		fatal(err)
	}
	cfg.Cache = cache
	cfg.CacheVerify = cacheFlags.VerifyN()
	cfg.CellStats = *cellStats
	tel := telFlags.Open()
	sum := telemetry.NewSummary("tables", os.Stderr)
	cfg.Telemetry = tel
	cache.SetTelemetry(tel)

	// Validate -agents up front regardless of mode, and reject it with
	// the paper profile, whose tables are defined over the fixed
	// none/spa/ipa set — silently dropping the user's list would mirror
	// the -verify-with-campaign trap in the other direction.
	agents, err := registry.ParseList(*agentList)
	if err != nil {
		fatal(err)
	}
	agentsSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "agents" {
			agentsSet = true
		}
	})
	if agentsSet && *profile == "paper" {
		fatal(fmt.Errorf("-agents applies only to campaign profiles; the paper tables always measure none/spa/ipa"))
	}
	// -cellstats columns attach to streamed campaign rows; the paper
	// tables have the paper's fixed layout.
	if *cellStats && *profile == "paper" {
		fatal(fmt.Errorf("-cellstats applies only to campaign profiles; the paper tables keep the paper's layout"))
	}
	// The paper profile never includes loaded scenarios, so accepting the
	// file there would silently measure nothing from it.
	if *scenarioFile != "" && *profile == "paper" {
		fatal(fmt.Errorf("-scenario requires a campaign profile (e.g. -profile custom or -profile all); -profile paper never measures loaded scenarios"))
	}
	if err := scenarios.LoadIfSet(*scenarioFile); err != nil {
		fatal(err)
	}

	if *profile != "paper" {
		// The claim verifier and the Markdown report are defined over the
		// paper tables; silently skipping them would turn a misspelled
		// invocation into a false green.
		if *verify || *markdown {
			fatal(fmt.Errorf("-verify and -markdown apply only to -profile paper (got -profile %s)", *profile))
		}
		if *table != "all" {
			fatal(fmt.Errorf("-table applies only to -profile paper (got -profile %s)", *profile))
		}
		runCampaign(*profile, agents, cfg, telFlags, sum)
		return
	}

	if *verify {
		rep, err := harness.VerifyShape(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Print(rep.String())
		cache.Finish(sum)
		telFlags.Finish(tel, sum)
		if !rep.OK() {
			os.Exit(1)
		}
		return
	}

	if *markdown {
		rows1, err := harness.TableI(cfg)
		if err != nil {
			fatal(err)
		}
		geo, err := harness.GeoMeanRow(rows1)
		if err != nil {
			fatal(err)
		}
		rows2, err := harness.TableII(cfg)
		if err != nil {
			fatal(err)
		}
		if err := harness.WriteMarkdown(os.Stdout, rows1, geo, rows2); err != nil {
			fatal(err)
		}
		cache.Finish(sum)
		telFlags.Finish(tel, sum)
		return
	}

	if *table == "1" || *table == "all" {
		rows, err := harness.TableI(cfg)
		if err != nil {
			fatal(err)
		}
		geo, err := harness.GeoMeanRow(rows)
		if err != nil {
			fatal(err)
		}
		text, err := harness.RenderTableI(rows, geo)
		if err != nil {
			fatal(err)
		}
		fmt.Print(text)
		fmt.Println()
	}
	if *table == "2" || *table == "all" {
		rows, err := harness.TableII(cfg)
		if err != nil {
			fatal(err)
		}
		text, err := harness.RenderTableII(rows)
		if err != nil {
			fatal(err)
		}
		fmt.Print(text)
	}
	if *table != "1" && *table != "2" && *table != "all" {
		fatal(fmt.Errorf("unknown -table %q (want 1, 2 or all)", *table))
	}
	cache.Finish(sum)
	telFlags.Finish(tel, sum)
}

// runCampaign measures a non-paper profile: every profile scenario under
// every requested agent (already validated), one streamed row per
// finished cell, then the expected-value check verdict. Failed cells
// render as FAILED rows and degrade the exit code to partial (3); check
// failures exit fatal (1).
func runCampaign(profile string, agents []string, cfg harness.Config, telFlags *telemetry.Flags, sum *telemetry.Summary) {
	scns, err := scenarios.Profile(profile)
	if err != nil {
		fatal(err)
	}
	camp := harness.Campaign{Scenarios: scns, Agents: agents, Config: cfg}
	header := harness.CampaignHeader()
	emit := func(r harness.CampaignRow) error {
		_, err := fmt.Println(r)
		return err
	}
	if cfg.CellStats {
		header = harness.CampaignCellStatsHeader()
		emit = func(r harness.CampaignRow) error {
			_, err := fmt.Println(r.CellStatsString())
			return err
		}
	}
	fmt.Printf("campaign %s: %d scenarios x %d agents\n%s\n",
		profile, len(scns), len(agents), header)
	res, err := camp.Run(context.Background(), emit)
	if err != nil {
		fatal(err)
	}
	cfg.Cache.Finish(sum)
	telFlags.Finish(cfg.Telemetry, sum)
	fmt.Println()
	fmt.Print(harness.RenderChecks(res.CheckFailures))
	if res.Failed > 0 {
		fmt.Printf("partial: %d of %d cells failed\n", res.Failed, len(res.Rows))
	}
	if len(res.CheckFailures) > 0 {
		os.Exit(harness.ExitFatal)
	}
	if res.Failed > 0 {
		os.Exit(harness.ExitPartial)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tables:", err)
	os.Exit(1)
}

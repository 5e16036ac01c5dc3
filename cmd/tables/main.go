// Command tables regenerates the paper's evaluation tables on the
// simulated JVM — Table I (execution time and profiling overhead for SPA
// and IPA) and Table II (profiling statistics produced by IPA) — and runs
// campaign measurements over any other scenario profile.
//
// Usage:
//
//	tables [shared flags] [-profile NAME] [-warmup N] [-table 1|2|all]
//	       [-runs N] [-markdown] [-verify] [-cellstats]
//
// The shared flags (-agents, -engine, -heap-*, -scenario, -scale,
// -parallel, -cell-timeout, -max-retries, the -cache* flags, -trace and
// -metrics) are the same in jvmsim, jprof and tables; the "Shared flags"
// table of docs/robustness.md describes them. tables takes a
// comma-separated -agents list (default none,spa,ipa) for campaign
// cells instead of one -agent. The rendered tables and campaign rows
// are byte-identical across engines, parallelism levels, telemetry on
// or off, and cold or warm caches; only wall-clock time changes.
// -warmup runs each cell that many discarded repetitions first — the
// warmup-aware form tier benchmarking wants.
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
// -table picks one paper table; -verify checks the paper's qualitative
// claims and -markdown writes both tables as a Markdown report, so
// neither takes -table.
//
// Campaign profiles are fault-tolerant (see docs/robustness.md): a cell
// that panics, times out or exhausts its retries renders as a FAILED row
// and the process exits with code 3 (partial) instead of aborting the
// matrix. The paper tables keep their all-or-nothing contract —
// reference tables with holes would be misleading — so -profile paper
// still fails fast. The result cache applies to every profile, paper
// included: a hit replays a complete cell, never a partial table.
// -cellstats appends host-side wall-time/allocation/source columns to
// campaign rows; the telemetry is never part of cached payloads.
//
// Exit codes: 0 complete, 1 fatal (including check failures), 2 usage,
// 3 partial.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/harness"
	"repro/internal/scenarios"
)

func main() {
	table := flag.String("table", "all", "which paper table to regenerate: 1, 2 or all")
	runs := flag.Int("runs", 1, "repetitions per measurement (median reported)")
	warmup := flag.Int("warmup", 0, "discarded warmup repetitions per measurement cell")
	markdown := flag.Bool("markdown", false, "emit the full campaign as a Markdown report")
	verify := flag.Bool("verify", false, "verify the paper's qualitative claims and exit non-zero on failure")
	profile := flag.String("profile", "paper", "scenario profile to run (paper renders the paper tables; any other family or 'all' runs a campaign)")
	cellStats := flag.Bool("cellstats", false, "append host-side wall-time/alloc/source columns to campaign rows (telemetry only, never cached)")
	f := cli.Register(flag.CommandLine, "tables")
	flag.Parse()

	if *profile == "paper" {
		// The paper tables are defined over the fixed none/spa/ipa set and
		// never include loaded scenarios, and -cellstats columns attach to
		// streamed campaign rows; silently dropping any of these would
		// mirror the -verify-with-campaign trap in the other direction.
		if f.Set("agents") {
			fatal(fmt.Errorf("-agents applies only to campaign profiles; the paper tables always measure none/spa/ipa"))
		}
		if *cellStats {
			fatal(fmt.Errorf("-cellstats applies only to campaign profiles; the paper tables keep the paper's layout"))
		}
		if f.Scenario != "" {
			fatal(fmt.Errorf("-scenario requires a campaign profile (e.g. -profile custom or -profile all); -profile paper never measures loaded scenarios"))
		}
	} else {
		// The claim verifier and the Markdown report are defined over the
		// paper tables; silently skipping them would turn a misspelled
		// invocation into a false green.
		if *verify || *markdown {
			fatal(fmt.Errorf("-verify and -markdown apply only to -profile paper (got -profile %s)", *profile))
		}
		if *table != "all" {
			fatal(fmt.Errorf("-table applies only to -profile paper (got -profile %s)", *profile))
		}
	}
	if *table != "all" && (*verify || *markdown) {
		fatal(fmt.Errorf("-table does not apply to -verify/-markdown (both always cover Tables I and II)"))
	}
	if *table != "1" && *table != "2" && *table != "all" {
		fatal(fmt.Errorf("unknown -table %q (want 1, 2 or all)", *table))
	}

	cfg, err := f.Open()
	if err != nil {
		fatal(err)
	}
	cfg.Runs = *runs
	cfg.Warmup = *warmup
	cfg.CellStats = *cellStats
	if *profile != "paper" {
		runCampaign(*profile, cfg, f)
		return
	}

	if *verify {
		rep, err := harness.VerifyShape(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Print(rep.String())
		if f.Finish() != nil || !rep.OK() {
			os.Exit(harness.ExitFatal)
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
		finish(f)
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
	finish(f)
}

// runCampaign measures a non-paper profile: every profile scenario under
// every requested agent, one streamed row per finished cell, then the
// expected-value check verdict. Failed cells render as FAILED rows and
// degrade the exit code to partial (3); check failures and a failed
// Finish exit fatal (1).
func runCampaign(profile string, cfg harness.Config, f *cli.Flags) {
	scns, err := scenarios.Profile(profile)
	if err != nil {
		fatal(err)
	}
	camp := harness.Campaign{Scenarios: scns, Agents: f.Agents, Config: cfg}
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
		profile, len(scns), len(f.Agents), header)
	res, err := camp.Run(context.Background(), emit)
	if err != nil {
		fatal(err)
	}
	finishErr := f.Finish()
	fmt.Println()
	fmt.Print(harness.RenderChecks(res.CheckFailures))
	if res.Failed > 0 {
		fmt.Printf("partial: %d of %d cells failed\n", res.Failed, len(res.Rows))
	}
	if finishErr != nil || len(res.CheckFailures) > 0 {
		os.Exit(harness.ExitFatal)
	}
	if res.Failed > 0 {
		os.Exit(harness.ExitPartial)
	}
}

// finish runs the end-of-run steps and exits fatal when one failed; the
// failure is already reported on stderr.
func finish(f *cli.Flags) {
	if f.Finish() != nil {
		os.Exit(harness.ExitFatal)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tables:", err)
	os.Exit(1)
}

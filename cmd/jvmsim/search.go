package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/cli"
	"repro/internal/difftest"
	"repro/internal/harness"
	"repro/internal/scenarios"
	"repro/internal/scenarios/trace"
	"repro/internal/scensearch"
)

// searchOutput is the -format=json document of one search run, the
// agent-native contract scripted callers parse instead of the text.
type searchOutput struct {
	Schema     string          `json:"schema"`
	Seed       int64           `json:"seed"`
	Budget     int             `json:"budget"`
	Oracle     string          `json:"oracle"`
	Iterations int             `json:"iterations"`
	Evals      int             `json:"evals"`
	Findings   []searchFinding `json:"findings"`
}

type searchFinding struct {
	Name       string              `json:"name"`
	Oracle     string              `json:"oracle"`
	File       string              `json:"file,omitempty"`
	Phases     int                 `json:"phases"`
	Iteration  int                 `json:"iteration"`
	Mismatches []difftest.Mismatch `json:"mismatches"`
}

// runSearch is the `jvmsim search` subcommand: the adversarial
// differential scenario search, plus its two corpus tools (-record
// compiles a real-program trace into a pinned scenario file; -replay
// re-checks found scenario files against their pins and every oracle).
//
// Exit codes: 0 clean (nothing found / replay passed / record written),
// 1 fatal, 2 usage, 4 at least one divergence found.
func runSearch(args []string) int {
	fs := flag.NewFlagSet("jvmsim search", flag.ExitOnError)
	budget := fs.Int("budget", 200, "candidate workloads to generate and judge")
	seed := fs.Int64("seed", 1, "mutation stream seed (equal seeds replay identical searches)")
	oracleName := fs.String("oracle", "all",
		fmt.Sprintf("differential contract to attack (%v)", scensearch.OracleNames()))
	stop := fs.Int("stop", 1, "stop after this many findings")
	format := fs.String("format", "text", "output format: text or json")
	outDir := fs.String("out", "examples/scenarios/found",
		"directory minimized findings are written to as scenario JSON (empty disables)")
	shared := cli.Register(fs, "jvmsim search")
	record := fs.String("record", "", "record/compile mode: trace this mini-JDK app (ziptool, jdkapp) instead of searching")
	recordOut := fs.String("o", "", "with -record: write the compiled scenario file here (default stdout)")
	replay := fs.Bool("replay", false, "replay mode: re-check the argument scenario files against their pins and every oracle")
	fs.Parse(args)
	if *format != "text" && *format != "json" {
		fmt.Fprintln(os.Stderr, "jvmsim search: -format must be text or json")
		return harness.ExitUsage
	}
	if *record != "" && *replay {
		fmt.Fprintln(os.Stderr, "jvmsim search: -record and -replay are mutually exclusive")
		return harness.ExitUsage
	}
	if *record != "" {
		return runRecord(*record, *recordOut)
	}
	if *replay {
		if fs.NArg() == 0 {
			fmt.Fprintln(os.Stderr, "jvmsim search: -replay needs scenario files as arguments")
			return harness.ExitUsage
		}
		return runReplay(fs.Args())
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "jvmsim search: unexpected arguments %v (scenario files attach via -scenario or -replay)\n", fs.Args())
		return harness.ExitUsage
	}

	// A -scenario file's entries join the seed pool (and are judged
	// unmutated first), so a regression corpus can be attacked directly.
	extra, err := shared.LoadScenarios()
	if err != nil {
		return searchFatal(err)
	}
	cfg, err := shared.Open()
	if err != nil {
		return searchFatal(err)
	}
	res, err := scensearch.Search(scensearch.Config{
		Seed:   *seed,
		Budget: *budget,
		Oracle: *oracleName,
		Extra:  extra,
		Stop:   *stop,
		Tel:    cfg.Telemetry,
	})
	if err != nil {
		shared.Finish()
		return searchFatal(err)
	}

	out := searchOutput{
		Schema: "jvmsim-search/v1",
		Seed:   *seed, Budget: *budget, Oracle: *oracleName,
		Iterations: res.Iterations, Evals: res.Evals,
		Findings: []searchFinding{},
	}
	for _, f := range res.Findings {
		sf := searchFinding{
			Name:       f.Scenario.Name(),
			Oracle:     f.Oracle,
			Phases:     len(f.Scenario.Workload.Phases),
			Iteration:  f.Iteration,
			Mismatches: f.Verdict.Mismatches(),
		}
		if *outDir != "" {
			path := filepath.Join(*outDir, f.Scenario.Name()+".json")
			if err := writeScenarioFile(path, f.Scenario); err != nil {
				shared.Finish()
				return searchFatal(err)
			}
			sf.File = path
		}
		out.Findings = append(out.Findings, sf)
	}

	if *format == "json" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return searchFatal(err)
		}
	} else {
		fmt.Printf("search: seed %d, budget %d, oracle %s: %d candidates, %d evaluations, %d finding(s)\n",
			out.Seed, out.Budget, out.Oracle, out.Iterations, out.Evals, len(out.Findings))
		for _, f := range res.Findings {
			fmt.Printf("\nFOUND %s (oracle %s, iteration %d, %d phase(s))\n",
				f.Scenario.Name(), f.Oracle, f.Iteration, len(f.Scenario.Workload.Phases))
			fmt.Println(f.Verdict.String())
			for _, sf := range out.Findings {
				if sf.Name == f.Scenario.Name() && sf.File != "" {
					fmt.Printf("written to %s\n", sf.File)
				}
			}
		}
	}
	if shared.Finish() != nil {
		// A -trace or -metrics file the user asked for is missing.
		return harness.ExitFatal
	}
	if len(res.Findings) > 0 {
		return harness.ExitFound
	}
	return harness.ExitComplete
}

// runRecord traces a mini-JDK application and writes the compiled,
// pinned scenario file.
func runRecord(app, outPath string) int {
	sc, err := trace.CompileApp(app, app+"-trace")
	if err != nil {
		return searchFatal(err)
	}
	data, err := scenarios.Marshal([]scenarios.Scenario{sc})
	if err != nil {
		return searchFatal(err)
	}
	if outPath == "" {
		os.Stdout.Write(data)
		return harness.ExitComplete
	}
	if err := os.MkdirAll(filepath.Dir(outPath), 0o755); err != nil {
		return searchFatal(err)
	}
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return searchFatal(err)
	}
	fmt.Printf("recorded %s: %d phase(s), pinned at scale %d, written to %s\n",
		app, len(sc.Workload.Phases), sc.Pins.Scale, outPath)
	return harness.ExitComplete
}

// runReplay re-checks scenario files against their pins and every
// oracle; any failure is fatal (the corpus-replay CI contract).
func runReplay(paths []string) int {
	failed := 0
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return searchFatal(err)
		}
		list, err := scenarios.ParseBytes(data)
		if err != nil {
			return searchFatal(fmt.Errorf("%s: %w", path, err))
		}
		for _, sc := range list {
			if v, err := scensearch.Replay(sc); err != nil {
				failed++
				fmt.Printf("replay %s (%s): FAILED: %v\n", sc.Name(), path, err)
				if v != nil {
					fmt.Println(v.String())
				}
				continue
			}
			fmt.Printf("replay %s (%s): ok\n", sc.Name(), path)
		}
	}
	if failed > 0 {
		return harness.ExitFatal
	}
	return harness.ExitComplete
}

// writeScenarioFile marshals one scenario into a fresh file.
func writeScenarioFile(path string, sc scenarios.Scenario) error {
	data, err := scenarios.Marshal([]scenarios.Scenario{sc})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func searchFatal(err error) int {
	fmt.Fprintln(os.Stderr, "jvmsim search:", err)
	return harness.ExitFatal
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/jit"
)

// The search acceptance tests drive the built jvmsim binary end to end —
// exit codes, the JSON contract, the found-scenario round trip — so the
// tested surface is exactly what a scripted caller (or the CI jobs)
// sees. Fixed seed/budget shared by the clean and defect runs so the
// acceptance criterion is one configuration, two tree states.

const (
	searchSeed   = "7"
	searchBudget = "60"
)

// defectEnv arms the jit multiply-add off-by-one in the child process.
var defectEnv = []string{jit.DefectEnvVar + "=" + jit.TestDefectMulAdd}

// TestSearchCleanExitsZero: on the clean tree the fixed budget finds
// nothing and exits 0 with an empty findings list.
func TestSearchCleanExitsZero(t *testing.T) {
	out, code := runBin(t, nil, "search",
		"-seed", searchSeed, "-budget", searchBudget, "-format", "json", "-out", "")
	if code != 0 {
		t.Fatalf("clean search exit = %d\n%s", code, out)
	}
	var doc struct {
		Schema   string `json:"schema"`
		Findings []any  `json:"findings"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("output is not the JSON contract: %v\n%s", err, out)
	}
	if doc.Schema != "jvmsim-search/v1" || len(doc.Findings) != 0 {
		t.Fatalf("clean search doc = %s", out)
	}
}

// TestSearchDefectFoundExitFour is the binary-level acceptance
// criterion: with JVMSIM_DEFECT armed, the same seed/budget exits 4,
// reports the finding through the JSON contract, minimizes it to ≤ 3
// phases, and the written scenario file round-trips through -scenario
// on a clean process (exit 0: the regression test a finding becomes).
func TestSearchDefectFoundExitFour(t *testing.T) {
	outDir := t.TempDir()
	out, code := runBin(t, defectEnv, "search",
		"-seed", searchSeed, "-budget", searchBudget, "-oracle", "engines",
		"-format", "json", "-out", outDir)
	if code != 4 {
		t.Fatalf("defect search exit = %d, want 4\n%s", code, out)
	}
	var doc struct {
		Schema   string `json:"schema"`
		Findings []struct {
			Name       string `json:"name"`
			Oracle     string `json:"oracle"`
			File       string `json:"file"`
			Phases     int    `json:"phases"`
			Mismatches []struct {
				Field string `json:"field"`
				A     string `json:"a"`
				B     string `json:"b"`
			} `json:"mismatches"`
		} `json:"findings"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("output is not the JSON contract: %v\n%s", err, out)
	}
	if len(doc.Findings) == 0 {
		t.Fatalf("no findings in doc: %s", out)
	}
	f := doc.Findings[0]
	if f.Oracle != "engines" || f.Phases > 3 || len(f.Mismatches) == 0 {
		t.Fatalf("finding = %+v", f)
	}
	if _, err := os.Stat(f.File); err != nil {
		t.Fatalf("finding file missing: %v", err)
	}
	// The minimized scenario file loads through -scenario and runs clean
	// on an undefective process.
	runOut, runCode := runBin(t, nil, "-scenario", f.File, f.Name)
	if runCode != 0 {
		t.Fatalf("found scenario failed through -scenario: exit %d\n%s", runCode, runOut)
	}
	if !strings.Contains(runOut, "benchmark") {
		t.Fatalf("scenario run output: %s", runOut)
	}
	// And -replay verifies its pins and oracle agreement.
	repOut, repCode := runBin(t, nil, "search", "-replay", f.File)
	if repCode != 0 {
		t.Fatalf("replay exit = %d\n%s", repCode, repOut)
	}
}

// TestSearchTextFormat: the default text format reports the summary
// line and exits by the same contract.
func TestSearchTextFormat(t *testing.T) {
	out, code := runBin(t, nil, "search", "-seed", "3", "-budget", "5", "-oracle", "loops", "-out", "")
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	if !strings.Contains(out, "0 finding(s)") {
		t.Fatalf("text output: %s", out)
	}
}

// TestSearchUsageErrors: bad flag combinations exit 2 without running
// anything.
func TestSearchUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"search", "-format", "xml"},
		{"search", "-replay"},
		{"search", "-record", "ziptool", "-replay", "x.json"},
		{"search", "stray-arg"},
	} {
		if _, code := runBin(t, nil, args...); code != 2 {
			t.Errorf("%v exit = %d, want 2", args, code)
		}
	}
	// An unknown oracle and an unknown -record app are fatal (1).
	if _, code := runBin(t, nil, "search", "-oracle", "warp"); code != 1 {
		t.Errorf("unknown oracle exit = %d, want 1", code)
	}
	if _, code := runBin(t, nil, "search", "-record", "warp"); code != 1 {
		t.Errorf("unknown record app exit = %d, want 1", code)
	}
	// An unknown defect name must refuse to start, not half-arm.
	if _, code := runBin(t, []string{jit.DefectEnvVar + "=warp"}, "search", "-budget", "1"); code != 1 {
		t.Errorf("unknown defect exit = %d, want 1", code)
	}
}

// TestSearchRecordRoundTrip: -record writes a pinned scenario file that
// replays clean and registers through -scenario.
func TestSearchRecordRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "zt.json")
	out, code := runBin(t, nil, "search", "-record", "ziptool", "-o", path)
	if code != 0 {
		t.Fatalf("record exit = %d\n%s", code, out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"pins"`) {
		t.Fatalf("recorded file lacks pins:\n%s", data)
	}
	if repOut, repCode := runBin(t, nil, "search", "-replay", path); repCode != 0 {
		t.Fatalf("replay exit = %d\n%s", repCode, repOut)
	}
	if runOut, runCode := runBin(t, nil, "-scenario", path, "ziptool-trace"); runCode != 0 {
		t.Fatalf("-scenario run exit = %d\n%s", runCode, runOut)
	}
}

// TestSearchRecordReproducesFound: recording ziptool and jdkapp prints
// the checked-in found/ scenario files byte for byte, so the recording
// agent's per-method profile cannot drift without the corpus noticing.
func TestSearchRecordReproducesFound(t *testing.T) {
	for _, app := range []string{"ziptool", "jdkapp"} {
		want, err := os.ReadFile("../../examples/scenarios/found/" + app + "-trace.json")
		if err != nil {
			t.Fatal(err)
		}
		out, code := runBin(t, nil, "search", "-record", app)
		if code != 0 || out != string(want) {
			t.Errorf("search -record %s: exit %d, stdout differs from found/%s-trace.json:\n%s", app, code, app, out)
		}
	}
}

// TestFoundCorpusReplays: every checked-in found/ scenario still passes
// its pins and every oracle — the corpus-replay contract CI enforces.
func TestFoundCorpusReplays(t *testing.T) {
	files, err := filepath.Glob("../../examples/scenarios/found/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 3 {
		t.Fatalf("found corpus too small: %v", files)
	}
	out, code := runBin(t, nil, append([]string{"search", "-replay"}, files...)...)
	if code != 0 {
		t.Fatalf("corpus replay exit = %d\n%s", code, out)
	}
}

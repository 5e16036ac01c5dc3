package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/cli"
	"repro/internal/faultinject"
	"repro/internal/resultcache"
	"repro/internal/scenarios"
)

// binPath is the jprof binary TestMain builds once for every
// integration test in this package.
var binPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "jprof-test-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binPath = filepath.Join(dir, "jprof")
	build := exec.Command("go", "build", "-o", binPath, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "building jprof:", err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runBin executes the built binary without a result cache and returns
// its stdout and exit code.
func runBin(t *testing.T, env []string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(binPath, args...)
	cmd.Env = append(append(os.Environ(), resultcache.EnvVar+"="), env...)
	out, err := cmd.Output()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("running %v: %v", args, err)
		}
		code = ee.ExitCode()
	}
	return string(out), code
}

// TestStdoutGolden pins jprof's IPA reports of the paper scenarios byte
// for byte, as text and as JSON.
func TestStdoutGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"testdata/ipa_paper_scale8.golden", []string{"-scale", "8", "-agent", "ipa", "paper"}},
		{"testdata/ipa_paper_scale8_json.golden", []string{"-scale", "8", "-agent", "ipa", "-json", "paper"}},
	} {
		golden, err := os.ReadFile(tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		out, code := runBin(t, nil, tc.args...)
		if code != 0 || out != string(golden) {
			t.Errorf("jprof %v: exit %d, stdout differs from %s:\n%s", tc.args, code, tc.golden, out)
		}
	}
}

// TestExitCodes pins the exit-code contract of docs/robustness.md.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		env  string
		args []string
		want int
	}{
		{"", []string{"-scale", "8", "compress"}, 0},
		{"", []string{"-scale", "8", "-bogus", "compress"}, 2},
		{"", nil, 2},
		{"", []string{"-scale", "8", "-engine", "bogus", "compress"}, 1},
		{faultinject.EnvVar + "=panic=compress", []string{"-scale", "8", "paper"}, 3},
	} {
		if _, code := runBin(t, []string{tc.env}, tc.args...); code != tc.want {
			t.Errorf("%s jprof %v: exit %d, want %d", tc.env, tc.args, code, tc.want)
		}
	}
}

// TestUnwritableTraceExitsFatal: a -trace file that cannot be written is
// a fatal exit, and stdout is what it would have been.
func TestUnwritableTraceExitsFatal(t *testing.T) {
	args := []string{"-scale", "8", "paper"}
	clean, _ := runBin(t, nil, args...)
	trace := filepath.Join(t.TempDir(), "missing", "trace.json")
	out, code := runBin(t, nil, append([]string{"-trace", trace}, args...)...)
	if code != 1 || out != clean {
		t.Fatalf("exit %d (want 1), stdout unchanged %v", code, out == clean)
	}
}

// TestProfileKeyPinned pins the jprof-rendered cell key of one scenario
// under the default flags, so a refactor of the flag or cell path
// cannot orphan existing caches.
func TestProfileKeyPinned(t *testing.T) {
	t.Setenv(resultcache.EnvVar, "")
	t.Setenv(faultinject.EnvVar, "")
	fs := flag.NewFlagSet("jprof", flag.ContinueOnError)
	f := cli.Register(fs, "jprof")
	if err := fs.Parse([]string{"-scale", "8"}); err != nil {
		t.Fatal(err)
	}
	cfg, err := f.Open()
	if err != nil {
		t.Fatal(err)
	}
	scns, err := scenarios.Resolve([]string{"compress"})
	if err != nil {
		t.Fatal(err)
	}
	opts := cfg.Opts
	scns[0].ApplyHeap(&opts)
	key, err := checkpoint.CellKey(renderer(f.Agent, cfg.Scale, false, false, false, false).Key(scns[0], opts))
	if err != nil {
		t.Fatal(err)
	}
	if want := "2cb2498d7fbb72683f14f561dcadeb0e299a43acf4f217dc3fd154d493c64bd9"; key != want {
		t.Fatalf("cell key %s, want %s", key, want)
	}
}

package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/checkpoint/keytest"
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
// for byte, as text and as JSON, and the chains and recorder reports of
// every scenario.
func TestStdoutGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"testdata/ipa_paper_scale8.golden", []string{"-scale", "8", "-agent", "ipa", "paper"}},
		{"testdata/ipa_paper_scale8_json.golden", []string{"-scale", "8", "-agent", "ipa", "-json", "paper"}},
		{"testdata/chains_all_scale8.golden", []string{"-scale", "8", "-agent", "chains", "all"}},
		{"testdata/recorder_all_scale8.golden", []string{"-scale", "8", "-agent", "recorder", "all"}},
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

// TestExitCodes pins the exit-code contract of docs/robustness.md. -list
// validates -agent and -engine as a run does, and otherwise prints the
// scenario names.
func TestExitCodes(t *testing.T) {
	names := strings.Join(scenarios.Names(), "\n") + "\n"
	for _, tc := range []struct {
		env  string
		args []string
		want int
		out  string // the expected stdout, when not empty
	}{
		{"", []string{"-scale", "8", "compress"}, 0, ""},
		{"", []string{"-scale", "8", "-bogus", "compress"}, 2, ""},
		{"", nil, 2, ""},
		{"", []string{"-scale", "8", "-engine", "bogus", "compress"}, 1, ""},
		{faultinject.EnvVar + "=panic=compress", []string{"-scale", "8", "paper"}, 3, ""},
		{"", []string{"-list", "-agent", "warp"}, 1, ""},
		{"", []string{"-list", "-engine", "bogus"}, 1, ""},
		{"", []string{"-list", "-agent", "warp", "-engine", "bogus"}, 1, ""},
		{"", []string{"-list"}, 0, names},
		{"", []string{"-list", "-agent", "spa", "-engine", "jit"}, 0, names},
	} {
		out, code := runBin(t, []string{tc.env}, tc.args...)
		if code != tc.want {
			t.Errorf("%s jprof %v: exit %d, want %d", tc.env, tc.args, code, tc.want)
		}
		if tc.out != "" && out != tc.out {
			t.Errorf("jprof %v: stdout %q, want %q", tc.args, out, tc.out)
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

// TestProfileKeyLeaves proves every leaf field of profileKey moves its
// key.
func TestProfileKeyLeaves(t *testing.T) {
	keytest.CheckLeaves(t, profileKey{})
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
	if want := "3577d30252345e294a00e789f7d0fe65c7d58fb6ab25370f614fce918f97cc34"; key != want {
		t.Fatalf("cell key %s, want %s", key, want)
	}
}

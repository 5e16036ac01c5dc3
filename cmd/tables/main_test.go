package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/resultcache"
)

// binPath is the tables binary TestMain builds once for every
// integration test in this package.
var binPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "tables-test-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binPath = filepath.Join(dir, "tables")
	build := exec.Command("go", "build", "-o", binPath, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "building tables:", err)
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

// TestStdoutGolden pins the paper tables and a campaign byte for byte.
func TestStdoutGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"../../internal/harness/testdata/paper_tables_scale8.golden", []string{"-scale", "8"}},
		{"testdata/gcpressure_scale8.golden", []string{"-profile", "gcpressure", "-scale", "8"}},
	} {
		golden, err := os.ReadFile(tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		out, code := runBin(t, nil, tc.args...)
		if code != 0 || out != string(golden) {
			t.Errorf("tables %v: exit %d, stdout differs from %s:\n%s", tc.args, code, tc.golden, out)
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
		{"", []string{"-scale", "8", "-table", "2"}, 0},
		{"", []string{"-scale", "8", "-bogus"}, 2},
		{"", []string{"-scale", "8", "-engine", "bogus"}, 1},
		{faultinject.EnvVar + "=panic=thrash", []string{"-profile", "gcpressure", "-scale", "8"}, 3},
		// -table would be dropped silently: both cover Tables I and II.
		{"", []string{"-scale", "8", "-verify", "-table", "1"}, 1},
		{"", []string{"-scale", "8", "-markdown", "-table", "2"}, 1},
	} {
		if _, code := runBin(t, []string{tc.env}, tc.args...); code != tc.want {
			t.Errorf("%s tables %v: exit %d, want %d", tc.env, tc.args, code, tc.want)
		}
	}
}

// TestUnwritableTraceExitsFatal: a -trace file that cannot be written is
// a fatal exit, and stdout is what it would have been.
func TestUnwritableTraceExitsFatal(t *testing.T) {
	args := []string{"-profile", "deep-chains", "-scale", "8"}
	clean, _ := runBin(t, nil, args...)
	trace := filepath.Join(t.TempDir(), "missing", "trace.json")
	out, code := runBin(t, nil, append([]string{"-trace", trace}, args...)...)
	if code != 1 || out != clean {
		t.Fatalf("exit %d (want 1), stdout unchanged %v", code, out == clean)
	}
}

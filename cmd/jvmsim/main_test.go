package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/checkpoint/keytest"
	"repro/internal/cli"
	"repro/internal/faultinject"
	"repro/internal/resultcache"
	"repro/internal/scenarios"
)

// binPath is the jvmsim binary TestMain builds once for every
// integration test in this package.
var binPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "jvmsim-test-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binPath = filepath.Join(dir, "jvmsim")
	build := exec.Command("go", "build", "-o", binPath, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "building jvmsim:", err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runBin executes the built binary and returns its stdout and exit code.
func runBin(t *testing.T, env []string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(binPath, args...)
	cmd.Env = append(os.Environ(), env...)
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

// cacheEntries counts the complete entries in the result cache at dir
// (never a writer's in-flight ".put-*" temp file); 0 while the cache
// does not exist yet or its layout stamp is still being written.
func cacheEntries(dir string) int {
	c, err := resultcache.Open(dir, resultcache.ModeRO)
	if err != nil {
		return 0
	}
	n, _, _ := c.Len()
	return n
}

// TestDoctorCountsStrayTempFiles proves the cache-dir check reports the
// ".put-*" temp files in the cache root apart from the entries.
func TestDoctorCountsStrayTempFiles(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	if _, err := resultcache.Open(dir, resultcache.ModeRW); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{".put-1", ".put-2"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(`{"key":"`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c := checkCache(dir)
	if !c.OK || !strings.Contains(c.Detail, "0 entries (0.0 MB), 2 stray temp files") {
		t.Fatalf("cache-dir check %+v, want OK with 0 entries and 2 stray temp files", c)
	}
}

// TestDoctorOutsideRepoRoot: doctor reads nothing relative to the
// working directory, so it passes from an empty directory.
func TestDoctorOutsideRepoRoot(t *testing.T) {
	for _, format := range []string{"text", "json"} {
		cmd := exec.Command(binPath, "doctor", "-format", format)
		cmd.Dir = t.TempDir()
		cmd.Env = append(os.Environ(), resultcache.EnvVar+"=")
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("doctor -format %s from %s: %v\n%s", format, cmd.Dir, err, out)
		}
	}
}

// TestCrashResumeByteIdentical is the end-to-end crash-resume proof on
// the real binary: a campaign killed mid-flight by the crash injector
// (faultinject's os.Exit(137), indistinguishable from SIGKILL as far as
// the result cache is concerned) resumes from its -cache-dir to output
// byte-identical to an uninterrupted run — per engine, sequential and
// parallel.
func TestCrashResumeByteIdentical(t *testing.T) {
	for _, engine := range []string{"interp", "jit", "auto"} {
		for _, par := range []string{"1", "4"} {
			t.Run(engine+"/par"+par, func(t *testing.T) {
				dir := filepath.Join(t.TempDir(), "cache")
				args := []string{"-scale", "8", "-engine", engine, "-parallel", par, "paper"}

				clean, code := runBin(t, nil, args...)
				if code != 0 {
					t.Fatalf("clean run exited %d", code)
				}

				cacheArgs := append([]string{"-cache-dir", dir}, args...)
				_, code = runBin(t, []string{faultinject.EnvVar + "=crash-after=3"}, cacheArgs...)
				if code != 137 {
					t.Fatalf("crashed run exited %d, want 137", code)
				}
				if n := cacheEntries(dir); n < 3 || n >= 8 {
					t.Fatalf("cache holds %d cells after crash, want [3,8)", n)
				}

				resumed, code := runBin(t, nil, cacheArgs...)
				if code != 0 {
					t.Fatalf("resumed run exited %d", code)
				}
				if resumed != clean {
					t.Fatalf("resumed output differs from uninterrupted run:\n--- clean ---\n%s\n--- resumed ---\n%s", clean, resumed)
				}
			})
		}
	}
}

// TestKillMidCampaignResume kills the binary with a real SIGKILL while
// the campaign is running, then resumes from whatever the result cache
// retained. The kill lands at an arbitrary point (whenever the first
// entry is published), so unlike the injector variant it can also catch
// a writer between its temp-file write and the rename, leaving a stray
// ".put-*" file the resume must ignore.
func TestKillMidCampaignResume(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	// Full calibrated size, sequential: ~tens of ms per cell, a wide
	// window between the first stored entry and campaign completion.
	args := []string{"-scale", "1", "-parallel", "1", "paper"}
	cacheArgs := append([]string{"-cache-dir", dir}, args...)

	clean, code := runBin(t, nil, args...)
	if code != 0 {
		t.Fatalf("clean run exited %d", code)
	}

	cmd := exec.Command(binPath, cacheArgs...)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for cacheEntries(dir) == 0 {
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatal("cache never gained an entry")
		}
		time.Sleep(time.Millisecond)
	}
	cmd.Process.Signal(syscall.SIGKILL)
	err := cmd.Wait()
	if err == nil {
		// The campaign outran the kill; the cache is complete and the
		// run below degenerates to the hit-only case. Rare (the window is
		// hundreds of ms), but not a failure of the contract under test.
		t.Log("process finished before SIGKILL landed; resume degenerates to full replay")
	}

	resumed, code := runBin(t, nil, cacheArgs...)
	if code != 0 {
		t.Fatalf("resumed run exited %d", code)
	}
	if resumed != clean {
		t.Fatalf("resumed output differs from uninterrupted run:\n--- clean ---\n%s\n--- resumed ---\n%s", clean, resumed)
	}
}

// TestStdoutGolden pins jvmsim's stdout byte for byte: the statistics
// of the paper scenarios on the jit engine.
func TestStdoutGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/jit_paper_scale8.golden")
	if err != nil {
		t.Fatal(err)
	}
	out, code := runBin(t, []string{resultcache.EnvVar + "="}, "-scale", "8", "-engine", "jit", "paper")
	if code != 0 || out != string(golden) {
		t.Fatalf("exit %d, stdout differs from the golden:\n%s", code, out)
	}
}

// TestTierStatsGolden pins the -tierstats view byte for byte on the jit
// engine: two scenarios whose recursive methods run promoted (exc-storm,
// chain-dense) and one paper benchmark (compress).
func TestTierStatsGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/tierstats_jit_scale8.golden")
	if err != nil {
		t.Fatal(err)
	}
	out, code := runBin(t, []string{resultcache.EnvVar + "="},
		"-engine", "jit", "-scale", "8", "-tierstats", "exc-storm", "chain-dense", "compress")
	if code != 0 || out != string(golden) {
		t.Fatalf("exit %d, stdout differs from the golden:\n%s", code, out)
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
		// Flags that a static analysis would drop silently.
		{"", []string{"-scale", "8", "-dump", "-trace", "t.json", "compress"}, 1},
		{"", []string{"-scale", "8", "-dump", "-cache-verify", "-3", "compress"}, 1},
		{"", []string{"-scale", "8", "-instrmix", "-parallel", "2", "compress"}, 1},
		{"", []string{"-scale", "8", "-dump", "-max-retries", "3", "-heap-tenured", "5", "compress"}, 1},
		{"", []string{"-scale", "8", "-dump", "-cell-timeout", "5s", "compress"}, 1},
		{"", []string{"-scale", "8", "-instrmix", "-heap-nursery", "64", "compress"}, 1},
		{"", []string{"-scale", "8", "-instrmix", "-heap-limit", "100", "-heap-tenure-age", "2", "compress"}, 1},
	} {
		if _, code := runBin(t, []string{resultcache.EnvVar + "=", tc.env}, tc.args...); code != tc.want {
			t.Errorf("%s jvmsim %v: exit %d, want %d", tc.env, tc.args, code, tc.want)
		}
	}
}

// TestUnwritableTraceExitsFatal: a -trace file that cannot be written is
// a fatal exit, and stdout is what it would have been.
func TestUnwritableTraceExitsFatal(t *testing.T) {
	args := []string{"-scale", "8", "paper"}
	clean, _ := runBin(t, []string{resultcache.EnvVar + "="}, args...)
	trace := filepath.Join(t.TempDir(), "missing", "trace.json")
	out, code := runBin(t, []string{resultcache.EnvVar + "="}, append([]string{"-trace", trace}, args...)...)
	if code != 1 || out != clean {
		t.Fatalf("exit %d (want 1), stdout unchanged %v", code, out == clean)
	}
}

// TestDumpNeverOpensCache: -dump and -instrmix never create or stamp a
// cache directory, even with $JVMSIM_CACHE set.
func TestDumpNeverOpensCache(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	for _, mode := range []string{"-dump", "-instrmix"} {
		if _, code := runBin(t, []string{resultcache.EnvVar + "=" + dir}, "-scale", "8", mode, "compress"); code != 0 {
			t.Fatalf("%s exited %d", mode, code)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Fatalf("%s touched the cache directory (stat: %v)", mode, err)
		}
	}
}

// TestCellKeyLeaves proves every leaf field of cellKey moves its key.
func TestCellKeyLeaves(t *testing.T) {
	keytest.CheckLeaves(t, cellKey{})
}

// TestCellKeyPinned pins the jvmsim-rendered cell key of one scenario
// under the default flags, so a refactor of the flag or cell path
// cannot orphan existing caches.
func TestCellKeyPinned(t *testing.T) {
	t.Setenv(resultcache.EnvVar, "")
	t.Setenv(faultinject.EnvVar, "")
	fs := flag.NewFlagSet("jvmsim", flag.ContinueOnError)
	f := cli.Register(fs, "jvmsim")
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
	key, err := checkpoint.CellKey(renderer(f.Agent, cfg.Scale, false).Key(scns[0], opts))
	if err != nil {
		t.Fatal(err)
	}
	if want := "f92938ffbbcaba1b1c36bcad313b7cab13789eabbec5e37e45ae375022b296c2"; key != want {
		t.Fatalf("cell key %s, want %s", key, want)
	}
}

package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/resultcache"
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

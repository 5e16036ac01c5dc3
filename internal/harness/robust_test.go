package harness

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/jit"
	"repro/internal/resultcache"
	"repro/internal/runner"
	"repro/internal/scenarios"
	"repro/internal/vm"
)

// robustScenarios is a small paper-profile slice used by the robustness
// tests: big enough to have multiple rows per run, small enough to keep
// the matrix cheap at scale 8.
func robustScenarios(t *testing.T) []scenarios.Scenario {
	t.Helper()
	suite, err := scenarios.Profile("paper")
	if err != nil {
		t.Fatal(err)
	}
	if len(suite) < 2 {
		t.Fatalf("paper profile has %d scenarios", len(suite))
	}
	return suite[:2]
}

// TestCampaignGracefulPanic proves an injected panic in one cell never
// aborts the campaign: the partial table renders with the failed row
// marked and every other cell measured.
func TestCampaignGracefulPanic(t *testing.T) {
	suite := robustScenarios(t)
	badKey := suite[0].Name() + "/ipa"
	cfg := DefaultConfig()
	cfg.Scale = 8
	cfg.Runs = 1
	cfg.Hook = faultinject.New(1, faultinject.Fault{Kind: faultinject.Panic, Match: badKey}).Hook()
	camp := Campaign{Scenarios: suite, Config: cfg}

	var emitted []CampaignRow
	res, err := camp.Run(context.Background(), func(r CampaignRow) error {
		emitted = append(emitted, r)
		return nil
	})
	if err != nil {
		t.Fatalf("graceful campaign returned fatal error: %v", err)
	}
	if res.Failed != 1 {
		t.Fatalf("Failed = %d, want 1", res.Failed)
	}
	if len(emitted) != len(res.Rows) {
		t.Fatalf("emitted %d rows, want all %d (failed rows included)", len(emitted), len(res.Rows))
	}
	for _, r := range res.Rows {
		key := r.Scenario.Name() + "/" + r.AgentName
		if key == badKey {
			var ce *runner.CellError
			if !errors.As(r.Err, &ce) || len(ce.Stack) == 0 {
				t.Fatalf("failed row err = %v, want CellError with stack", r.Err)
			}
			if r.M != nil {
				t.Error("failed row carries a measurement")
			}
		} else if r.Err != nil || r.M == nil {
			t.Fatalf("row %s: err=%v m=%v — panic leaked into other cells", key, r.Err, r.M)
		}
	}
	out, err := RenderCampaign(res)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "FAILED: ") || !strings.Contains(out, "partial: 1 of") {
		t.Errorf("partial table missing failure markers:\n%s", out)
	}
}

// TestCampaignGracefulDeadline proves a deadline overrun in one cell is
// contained the same way.
func TestCampaignGracefulDeadline(t *testing.T) {
	suite := robustScenarios(t)
	slowKey := suite[1].Name() + "/none"
	cfg := DefaultConfig()
	cfg.Scale = 8
	cfg.Runs = 1
	// Generous deadline: the healthy cell must finish well inside it even
	// under -race, while the delayed cell blocks far past it.
	cfg.CellTimeout = 2 * time.Second
	cfg.Hook = faultinject.New(1, faultinject.Fault{Kind: faultinject.Delay, Match: slowKey}).Hook()
	camp := Campaign{Scenarios: suite, Agents: []string{"none"}, Config: cfg}
	res, err := camp.Run(context.Background(), nil)
	if err != nil {
		t.Fatalf("graceful campaign returned fatal error: %v", err)
	}
	if res.Failed != 1 {
		t.Fatalf("Failed = %d, want 1", res.Failed)
	}
	for _, r := range res.Rows {
		if r.Scenario.Name()+"/"+r.AgentName == slowKey {
			if !errors.Is(r.Err, context.DeadlineExceeded) {
				t.Fatalf("slow row err = %v, want DeadlineExceeded", r.Err)
			}
		} else if r.Err != nil {
			t.Fatalf("row %s failed: %v", r.Scenario.Name(), r.Err)
		}
	}
}

// TestCampaignTransientRetrySucceeds proves a transiently failing cell
// recovers under Config.MaxRetries with no trace in the output.
func TestCampaignTransientRetrySucceeds(t *testing.T) {
	suite := robustScenarios(t)
	cfg := DefaultConfig()
	cfg.Scale = 8
	cfg.Runs = 1
	cfg.MaxRetries = 2
	camp := Campaign{Scenarios: suite, Agents: []string{"none"}, Config: cfg}

	base, err := camp.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RenderCampaign(base)
	if err != nil {
		t.Fatal(err)
	}

	cfg.Hook = faultinject.New(1, faultinject.Fault{Kind: faultinject.Transient, Match: suite[0].Name(), Attempts: 2}).Hook()
	camp.Config = cfg
	res, err := camp.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("Failed = %d after retries, want 0", res.Failed)
	}
	got, err := RenderCampaign(res)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Error("retried campaign output differs from clean run")
	}
}

// TestCampaignFailFastPreserved pins the pre-PR-7 contract the paper
// presets rely on: with FailFast set, the first cell error aborts.
func TestCampaignFailFastPreserved(t *testing.T) {
	suite := robustScenarios(t)
	cfg := DefaultConfig()
	cfg.Scale = 8
	cfg.Runs = 1
	cfg.FailFast = true
	cfg.Hook = faultinject.New(1, faultinject.Fault{Kind: faultinject.Panic, Match: suite[0].Name()}).Hook()
	camp := Campaign{Scenarios: suite, Agents: []string{"none"}, Config: cfg}
	if _, err := camp.Run(context.Background(), nil); err == nil {
		t.Fatal("FailFast campaign swallowed the cell error")
	}
}

// runResumable runs the campaign against a fresh rw cache over dir and
// returns the rendered output with the cache.
func runResumable(t *testing.T, camp Campaign, dir string) (string, *resultcache.Cache, error) {
	t.Helper()
	cache := openTestCache(t, dir)
	camp.Config.Cache = cache
	res, err := camp.Run(context.Background(), nil)
	if err != nil {
		return "", cache, err
	}
	out, err := RenderCampaign(res)
	if err != nil {
		t.Fatal(err)
	}
	return out, cache, nil
}

// TestCampaignCrashResumeByteIdentical is the in-process kill-and-resume
// proof at scale 8: a campaign killed between cells by the crash
// injector resumes from its result cache and renders byte-identical
// output to an uninterrupted run — for sequential and parallel
// execution, under every engine (interp, jit, auto).
func TestCampaignCrashResumeByteIdentical(t *testing.T) {
	// More cells than the widest worker pool below: when the crash fires,
	// in-flight cells may still complete and be stored, so only a matrix
	// larger than parallelism + crash point guarantees unstored cells
	// remain for the resume to prove itself on.
	full, err := scenarios.Profile("paper")
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 4 {
		t.Fatalf("paper profile has %d scenarios", len(full))
	}
	suite := full[:4]
	for _, eng := range []string{"interp", "jit", "auto"} {
		for _, par := range []int{1, 4} {
			t.Run(eng+"-par"+string(rune('0'+par)), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Scale = 8
				cfg.Runs = 1
				cfg.Parallelism = par
				var err error
				if cfg.Opts.Tier, err = jit.ParseEngine(eng); err != nil {
					t.Fatal(err)
				}
				camp := Campaign{Scenarios: suite, Agents: []string{"none", "ipa"}, Config: cfg}

				// Uninterrupted baseline, no cache.
				base, err := camp.Run(context.Background(), nil)
				if err != nil {
					t.Fatal(err)
				}
				want, err := RenderCampaign(base)
				if err != nil {
					t.Fatal(err)
				}

				// Crash run: the injector "kills the process" after 2 cells by
				// cancelling the campaign context — the in-process stand-in for
				// os.Exit, leaving the cache exactly as a dead process would.
				dir := t.TempDir()
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				old := faultinject.CrashFunc
				faultinject.CrashFunc = cancel
				crashCamp := camp
				crashCamp.Config.Hook = faultinject.New(1, faultinject.Fault{Kind: faultinject.Crash, After: 2}).Hook()
				crashCamp.Config.Cache = openTestCache(t, dir)
				if _, err := crashCamp.Run(ctx, nil); err == nil {
					t.Fatal("crashed campaign reported success")
				}
				faultinject.CrashFunc = old

				stored, _, err := openTestCache(t, dir).Len()
				if err != nil {
					t.Fatal(err)
				}
				if stored < 2 {
					t.Fatalf("cache holds %d cells after crash, want ≥2", stored)
				}
				if stored >= len(suite)*2 {
					t.Fatalf("cache holds all %d cells — crash fired too late to prove resume", stored)
				}

				// Resume: same campaign, same cache directory, no faults.
				got, cache, err := runResumable(t, camp, dir)
				if err != nil {
					t.Fatalf("resume failed: %v", err)
				}
				if got != want {
					t.Errorf("resumed output differs from uninterrupted run\n--- want ---\n%s--- got ---\n%s", want, got)
				}
				if s := cache.Stats(); s.Hits != uint64(stored) {
					t.Errorf("resume served %d cells from the cache, want the %d stored before the crash", s.Hits, stored)
				}
			})
		}
	}
}

// TestCampaignResumeServesFromCache proves a second run over a complete
// cache re-runs nothing: every cell hits, none is re-measured and
// re-stored, and the output is byte-identical. Stray ".put-*" temp
// files — what a writer killed between write and rename leaves in the
// cache root — are ignored by Open, Len and the resume alike; Evict
// sweeps the one older than resultcache.StrayGrace and leaves the young
// one, which may be another process's write in flight.
func TestCampaignResumeServesFromCache(t *testing.T) {
	suite := robustScenarios(t)
	cfg := DefaultConfig()
	cfg.Scale = 8
	cfg.Runs = 1
	camp := Campaign{Scenarios: suite, Agents: []string{"none"}, Config: cfg}
	for _, stray := range []bool{false, true} {
		dir := t.TempDir()
		first, _, err := runResumable(t, camp, dir)
		if err != nil {
			t.Fatal(err)
		}
		cells, size, err := openTestCache(t, dir).Len()
		if err != nil {
			t.Fatal(err)
		}
		strayPath := filepath.Join(dir, ".put-1234567")
		agedPath := filepath.Join(dir, ".put-7654321")
		if stray {
			for _, p := range []string{strayPath, agedPath} {
				if err := os.WriteFile(p, []byte(`{"key":"`+strings.Repeat("ab", 32)), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			aged := time.Now().Add(-2 * resultcache.StrayGrace)
			if err := os.Chtimes(agedPath, aged, aged); err != nil {
				t.Fatal(err)
			}
		}

		second, cache, err := runResumable(t, camp, dir)
		if err != nil {
			t.Fatalf("stray=%v: %v", stray, err)
		}
		if second != first {
			t.Errorf("stray=%v: cache-served output differs from measured output", stray)
		}
		if s := cache.Stats(); s.Puts != 0 || s.Misses != 0 || s.Hits != uint64(cells) {
			t.Errorf("stray=%v: resume stats %+v, want %d hits and no misses or puts — cells were re-run", stray, s, cells)
		}
		if n, b, err := cache.Len(); err != nil || n != cells || b != size {
			t.Errorf("stray=%v: Len = %d entries / %d bytes (%v), want %d / %d", stray, n, b, err, cells, size)
		}
		cache.MaxBytes = size
		if n, err := cache.Evict(); err != nil || n != 0 {
			t.Errorf("stray=%v: Evict at the entries' own size evicted %d (%v), want 0", stray, n, err)
		}
		if stray {
			if _, err := os.Stat(strayPath); err != nil {
				t.Errorf("young stray temp file touched: %v", err)
			}
			if _, err := os.Stat(agedPath); !os.IsNotExist(err) {
				t.Errorf("aged stray temp file not swept: %v", err)
			}
		}
	}
}

// TestCellKeyPrecedence proves the content address respects the
// heap-precedence rule and moves when any identity component moves.
func TestCellKeyPrecedence(t *testing.T) {
	suite := robustScenarios(t)
	cfg := DefaultConfig()
	k1, err := cellKey(suite[0], "none", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if k2, _ := cellKey(suite[0], "none", cfg); k2 != k1 {
		t.Fatal("cell key not deterministic")
	}
	variants := []Config{}
	c := cfg
	c.Scale = 4
	variants = append(variants, c)
	c = cfg
	c.Runs = 5
	variants = append(variants, c)
	c = cfg
	c.Opts.Heap = vm.HeapConfig{NurseryWords: 4096, TenuredWords: 65536, TenureAge: 2}
	variants = append(variants, c)
	for i, v := range variants {
		if k, _ := cellKey(suite[0], "none", v); k == k1 {
			t.Errorf("variant %d did not move the cell key", i)
		}
	}
	if k, _ := cellKey(suite[0], "ipa", cfg); k == k1 {
		t.Error("agent change did not move the cell key")
	}
	if k, _ := cellKey(suite[1], "none", cfg); k == k1 {
		t.Error("scenario change did not move the cell key")
	}
}

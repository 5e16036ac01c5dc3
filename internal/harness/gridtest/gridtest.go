// Package gridtest runs the campaigns whose cells share what the process
// stores once per content — class images, generated programs and IPA's
// rewrites — for the tests that check no cell writes a shared value.
package gridtest

import (
	"context"
	"testing"

	"repro/internal/harness"
	"repro/internal/jit"
	"repro/internal/scenarios"
)

// Run runs the paper grid (Tables I and II at scale 8 on the interp
// engine) and then the all-family campaign as none and ipa at scale 8 on
// the jit engine, each on four workers, so cells on several goroutines
// share the stored values at once. It fails t on any error or failed
// cell.
func Run(t testing.TB) {
	t.Helper()
	cfg := harness.DefaultConfig()
	cfg.Runs = 1
	cfg.Scale = 8
	cfg.Parallelism = 4
	cfg.Opts.Tier = jit.EngineInterp
	if _, err := harness.TableI(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := harness.TableII(cfg); err != nil {
		t.Fatal(err)
	}
	all, err := scenarios.Profile("all")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Opts.Tier = jit.EngineJIT
	camp := harness.Campaign{Scenarios: all, Agents: []string{"none", "ipa"}, Config: cfg}
	res, err := camp.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("%d cells failed", res.Failed)
	}
}

// Store is a test's view of one process-wide store of shared values.
type Store struct {
	// Clear empties the store.
	Clear func()
	// Digests returns a digest of every stored value's content, by key.
	Digests func() (map[string][32]byte, error)
	// Stale rebuilds every stored value afresh from its key and names
	// those that differ from the rebuilt one.
	Stale func() ([]string, error)
	// Plant writes into one stored value and returns the function that
	// undoes the write; ok is false when there is nothing to write into.
	Plant func() (undo func(), ok bool)
}

// CheckUnwritten clears s and runs the grid (Run) twice. The second run
// must find every value the first stored unchanged — same digest, equal
// to a fresh rebuild — and store no other; under -race, a cell writing a
// value another cell reads is also a reported race. A write planted
// into a stored value must then fail the same check, and undoing it
// must pass it again.
func CheckUnwritten(t *testing.T, s Store) {
	t.Helper()
	check := func(before map[string][32]byte) (moved int, stale []string) {
		t.Helper()
		after, err := s.Digests()
		if err != nil {
			t.Fatal(err)
		}
		if len(after) != len(before) {
			t.Fatalf("%d values stored before the checked run, %d after", len(before), len(after))
		}
		for k, d := range after {
			if b, ok := before[k]; !ok || b != d {
				moved++
			}
		}
		if stale, err = s.Stale(); err != nil {
			t.Fatal(err)
		}
		return moved, stale
	}

	s.Clear()
	Run(t)
	before, err := s.Digests()
	if err != nil {
		t.Fatal(err)
	}
	Run(t)
	if moved, stale := check(before); moved != 0 || len(stale) != 0 {
		t.Fatalf("stored values written during the runs: %d digests moved, stale %v", moved, stale)
	}
	t.Logf("%d stored values shared by both runs", len(before))

	undo, ok := s.Plant()
	if !ok {
		t.Fatal("no stored value to write into")
	}
	moved, stale := check(before)
	undo()
	if moved != 1 || len(stale) != 1 {
		t.Errorf("planted write: %d digests moved, stale %v; want 1 and one value", moved, stale)
	}
	if moved, stale = check(before); moved != 0 || len(stale) != 0 {
		t.Fatalf("after undoing the planted write: %d moved, stale %v", moved, stale)
	}
}

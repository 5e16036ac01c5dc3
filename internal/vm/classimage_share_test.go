package vm_test

import (
	"context"
	"testing"

	"repro/internal/harness"
	"repro/internal/jit"
	"repro/internal/scenarios"
	"repro/internal/vm"
)

// TestClassImagesStayUnwritten runs the all-family campaign as none and
// ipa on the jit engine with four workers, so VMs on several goroutines
// share the stored class images at once. No VM may write a shared image:
// every image stored before the run must keep its digest, and every
// image stored after it must equal a fresh load of its class. Under
// -race, a VM writing what another reads is also a reported race. A
// planted write into a stored lowering shows the check catches one.
func TestClassImagesStayUnwritten(t *testing.T) {
	all, err := scenarios.Profile("all")
	if err != nil {
		t.Fatal(err)
	}
	cfg := harness.DefaultConfig()
	cfg.Runs = 1
	cfg.Scale = 8
	cfg.Parallelism = 4
	cfg.Opts.Tier = jit.EngineJIT
	camp := harness.Campaign{Scenarios: all, Agents: []string{"none", "ipa"}, Config: cfg}
	run := func() {
		t.Helper()
		res, err := camp.Run(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 {
			t.Fatalf("%d cells failed", res.Failed)
		}
	}
	// changed names the keys stored both before and after whose digest
	// moved, and checks every stored image against a fresh build.
	changed := func(before map[string][32]byte) (moved, kept int, stale []string) {
		t.Helper()
		for k, d := range vm.ImageDigests() {
			if b, ok := before[k]; ok {
				kept++
				if b != d {
					moved++
				}
			}
		}
		stale, err := vm.StaleImages()
		if err != nil {
			t.Fatal(err)
		}
		return moved, kept, stale
	}

	vm.ClearImages()
	run() // store this campaign's classes
	before := vm.ImageDigests()
	run()
	moved, kept, stale := changed(before)
	if moved != 0 || len(stale) != 0 {
		t.Fatalf("shared class images written during the campaign: %d digests moved, stale %v", moved, stale)
	}
	if after := len(vm.ImageDigests()); kept != len(before) || after != kept {
		t.Fatalf("%d images before the checked run, %d after, %d kept: the checked run loaded classes the first did not store",
			len(before), after, kept)
	}
	t.Logf("%d images shared by both runs", kept)

	undo, ok := vm.PlantImageWrite()
	if !ok {
		t.Fatal("no stored image has a lowering to write into")
	}
	moved, _, stale = changed(before)
	undo()
	if moved != 1 {
		t.Errorf("planted write moved %d digests, want 1", moved)
	}
	if len(stale) != 1 {
		t.Errorf("planted write: stale %v, want one class", stale)
	}
	if moved, _, stale = changed(before); moved != 0 || len(stale) != 0 {
		t.Fatalf("after undoing the planted write: %d moved, stale %v", moved, stale)
	}
}

package harness

import (
	"reflect"
	"testing"

	"repro/internal/agents/ipa"
	"repro/internal/agents/sampler"
	"repro/internal/agents/spa"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// TestFastLoopDifferentialAllWorkloads is the whole-system differential
// guarantee behind the dual dispatch loops: every suite workload, run
// uninstrumented and under SPA and IPA, produces identical ground-truth
// cycles, instruction counts, results and agent reports whether
// interpreted frames run on the block executor (default) or on the fully
// instrumented loop (Options.ForceInstrumentedLoop). The instrumented
// loop keeps the historical per-instruction sequence, so this pins the
// block executor to the seed semantics bit-for-bit.
func TestFastLoopDifferentialAllWorkloads(t *testing.T) {
	agents := map[string]func() core.Agent{
		"none": func() core.Agent { return nil },
		"SPA":  func() core.Agent { return spa.New() },
		"IPA":  func() core.Agent { return ipa.New() },
	}
	for _, bench := range workloads.Suite() {
		spec := bench.Spec.Scale(50)
		for name, mk := range agents {
			t.Run(spec.Name+"/"+name, func(t *testing.T) {
				run := func(force bool) *core.RunResult {
					prog, err := workloads.Build(spec)
					if err != nil {
						t.Fatal(err)
					}
					opts := vm.DefaultOptions()
					opts.ForceInstrumentedLoop = force
					res, err := core.Run(prog, mk(), opts)
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				fast := run(false)
				slow := run(true)
				if rep := difftest.Diff(spec.Name, "fast", "instrumented",
					difftest.FromRun(fast, nil), difftest.FromRun(slow, nil)); rep.Diverged() {
					t.Error(rep)
				}
				// Obs summarizes the report; the per-thread rows must also
				// match exactly.
				if !reflect.DeepEqual(fast.Report, slow.Report) {
					t.Errorf("agent report diverged:\nfast: %+v\ninstrumented: %+v", fast.Report, slow.Report)
				}
			})
		}
	}
}

// TestFastLoopDifferentialSampler: with an active sampling hook both runs
// use the instrumented loop, so forcing it must change nothing — the
// selection logic itself is part of the contract.
func TestFastLoopDifferentialSampler(t *testing.T) {
	b, err := workloads.ByName("javac")
	if err != nil {
		t.Fatal(err)
	}
	spec := b.Spec.Scale(50)
	run := func(force bool) *core.RunResult {
		prog, err := workloads.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		opts := vm.DefaultOptions()
		opts.SampleInterval = 2000
		opts.SampleCost = 20
		opts.ForceInstrumentedLoop = force
		res, err := core.Run(prog, sampler.New(), opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fast := run(false)
	slow := run(true)
	if rep := difftest.Diff("javac/sampler", "fast", "forced",
		difftest.FromRun(fast, nil), difftest.FromRun(slow, nil)); rep.Diverged() {
		t.Fatalf("sampler run diverged:\n%s", rep)
	}
}

package scensearch

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/jit"
	"repro/internal/scenarios"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// An oracle is one differential contract the search attacks: a set of
// execution configurations (legs) that must agree on every observable
// outside the oracle's ignore mask. The baseline leg comes first.
type oracle struct {
	name string
	// legs tune the canonical options into each configuration.
	legs []leg
	// ignore masks the Obs fields the oracle legitimately lets differ.
	ignore []string
}

type leg struct {
	label string
	tune  func(*vm.Options)
}

// searchOptions are the canonical options with the promotion thresholds
// lowered so the jit and auto legs actually compile inside the small
// workloads the mutation grammar emits, and with the block executor
// selected: each leg that wants the instrumented loop asks for it.
func searchOptions() vm.Options {
	o := scenarios.CanonicalOptions()
	o.JITThreshold = 4
	o.CompileThreshold = 3
	o.ForceInstrumentedLoop = false
	return o
}

// oracles is the registry, in evaluation order.
var oracles = []oracle{
	{
		name: "engines",
		// The baseline leg is the step-by-step loop: interpreted and
		// compiled frames execute the same lowering, so a lowering
		// defect shows in both and only this leg stays independent.
		legs: []leg{
			{"interp", func(o *vm.Options) { o.Tier = jit.EngineInterp; o.ForceInstrumentedLoop = true }},
			{"jit", func(o *vm.Options) { o.Tier = jit.EngineJIT }},
			{"auto", func(o *vm.Options) { o.Tier = jit.EngineAuto }},
		},
	},
	{
		name: "loops",
		legs: []leg{
			{"fast", func(o *vm.Options) {}},
			{"instrumented", func(o *vm.Options) { o.ForceInstrumentedLoop = true }},
		},
	},
	{
		name: "gc",
		legs: []leg{
			{"legacy", func(o *vm.Options) {}},
			{"gen-small", func(o *vm.Options) {
				o.Heap = vm.HeapConfig{NurseryWords: 1 << 14, TenureAge: 2}
			}},
			{"gen-tiny", func(o *vm.Options) {
				o.Heap = vm.HeapConfig{NurseryWords: 1 << 12, TenuredWords: 1 << 15, TenureAge: 1}
			}},
		},
		// Heap sizing legitimately moves collection counts and pause
		// cycles; the program's results and attribution must not move.
		ignore: difftest.IgnoreHeapSensitive(),
	},
}

// OracleNames lists the accepted -oracle values plus "all".
func OracleNames() []string {
	out := make([]string, 0, len(oracles)+1)
	for _, o := range oracles {
		out = append(out, o.name)
	}
	out = append(out, "all")
	sort.Strings(out)
	return out
}

// selectOracles resolves an -oracle flag value.
func selectOracles(name string) ([]oracle, error) {
	if name == "" || name == "all" {
		return oracles, nil
	}
	for _, o := range oracles {
		if o.name == name {
			return []oracle{o}, nil
		}
	}
	return nil, fmt.Errorf("scensearch: unknown oracle %q (known: %v)", name, OracleNames())
}

// evaluate runs the workload under every leg of the oracle and judges
// the observables. The workload builds once per leg (BuildWorkload is
// deterministic) so a leg cannot observe another leg's VM state.
func (o oracle) evaluate(w workloads.Workload) (*difftest.Verdict, error) {
	legs := make([]difftest.Leg, 0, len(o.legs))
	for _, l := range o.legs {
		prog, err := workloads.BuildWorkload(w)
		if err != nil {
			return nil, err
		}
		opts := searchOptions()
		l.tune(&opts)
		res, runErr := core.Run(prog, nil, opts)
		legs = append(legs, difftest.Leg{Label: l.label, Obs: difftest.FromRun(res, runErr)})
	}
	return difftest.Judge(o.name+"/"+w.Name, legs, o.ignore...), nil
}

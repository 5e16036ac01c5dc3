package recorder

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/scenarios"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// TestExactCounterInvariants checks the agent against the VM's own
// counters on every scenario at scale 8, under both handler costs:
//   - each bytecode method's recorded calls equal its invocation count;
//   - the native calls sum to the ground truth's native method calls;
//   - the chain rows ending in a method sum to its self cycles;
//   - the self cycles of every context, root included, are the run's
//     total cycles exactly.
func TestExactCounterInvariants(t *testing.T) {
	all, err := scenarios.Profile("all")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range all {
		for _, a := range []*Agent{New(), NewChains()} {
			prog, err := workloads.BuildWorkload(s.Workload.Scale(8))
			if err != nil {
				t.Fatal(err)
			}
			opts := vm.DefaultOptions()
			s.ApplyHeap(&opts)
			res, v, err := core.RunKeepVM(prog, a, opts)
			if err != nil {
				t.Fatalf("%s under %s: %v", s.Name(), a.Name(), err)
			}
			checkInvariants(t, s.Name()+" under "+a.Name(), a, res, prog, v)
		}
	}
}

func checkInvariants(t *testing.T, label string, a *Agent, res *core.RunResult, prog *core.Program, v *vm.VM) {
	t.Helper()
	stats := map[string]MethodStat{}
	leafSelf := map[string]uint64{}
	var self, nativeCalls uint64
	for _, ms := range a.Stats() {
		stats[ms.Name] = ms
		self += ms.SelfCycles
		leaf := ms.Name[:strings.IndexByte(ms.Name, '(')]
		leaf = leaf[strings.LastIndexByte(leaf, '.')+1:]
		if ms.Native {
			leaf += "*"
			nativeCalls += ms.Calls
		}
		leafSelf[leaf] += ms.SelfCycles
	}
	for _, def := range prog.Classes {
		c, err := v.Class(def.Name)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for _, md := range def.Methods {
			m := c.Method(md.Name, md.Desc)
			if m.IsNative() {
				continue
			}
			if got := stats[m.FullName()].Calls; got != m.Invocations() {
				t.Errorf("%s: %s recorded %d calls, VM counted %d", label, m.FullName(), got, m.Invocations())
			}
		}
	}
	if nativeCalls != res.Truth.NativeMethodCalls {
		t.Errorf("%s: native calls %d, ground truth %d", label, nativeCalls, res.Truth.NativeMethodCalls)
	}
	chainSelf := map[string]uint64{}
	for _, cs := range a.Chains() {
		leaf := cs.Chain
		if i := strings.LastIndex(leaf, " > "); i >= 0 {
			leaf = leaf[i+len(" > "):]
		}
		chainSelf[leaf] += cs.ExclusiveCycles
	}
	if len(chainSelf) != len(leafSelf) {
		t.Errorf("%s: chains end in %d distinct methods, the method rows name %d", label, len(chainSelf), len(leafSelf))
	}
	for leaf, want := range leafSelf {
		if got := chainSelf[leaf]; got != want {
			t.Errorf("%s: chains ending in %s hold %d cycles, its methods' self cycles %d", label, leaf, got, want)
		}
	}
	if total := self + a.RootCycles(); total != res.TotalCycles {
		t.Errorf("%s: self %d + root %d = %d, run total %d", label, self, a.RootCycles(), total, res.TotalCycles)
	}
}

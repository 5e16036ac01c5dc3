package recorder

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/vm"
	"repro/internal/workloads"
)

func testSpec() workloads.Spec {
	return workloads.Spec{
		Name: "chains-test", ClassName: "t/ChainsTest",
		OuterIters: 25, CallsPerIter: 2, WorkPerCall: 8,
		NativeCallsPerIter: 2, NativeWork: 150,
		JNIEvery: 4, CallbackWork: 4,
	}
}

func runChains(t *testing.T, spec workloads.Spec) (*Agent, *core.RunResult) {
	t.Helper()
	prog, err := workloads.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	agent := NewChains()
	res, err := core.Run(prog, agent, vm.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return agent, res
}

func TestChainsObserved(t *testing.T) {
	agent, _ := runChains(t, testSpec())
	all := agent.Chains()
	if len(all) == 0 {
		t.Fatal("no chains recorded")
	}
	byChain := map[string]ChainStat{}
	for _, cs := range all {
		byChain[cs.Chain] = cs
	}
	// The workload's structure must appear literally.
	want := []string{
		"main",
		"main > worker",
		"main > worker > helper",
		"main > worker > nwork*",
		"main > worker > nwork* > callback",
	}
	for _, w := range want {
		if _, ok := byChain[w]; !ok {
			t.Errorf("chain %q not recorded; have %d chains", w, len(all))
		}
	}
}

func TestMixedChainsDetected(t *testing.T) {
	agent, _ := runChains(t, testSpec())
	mixed := agent.MixedChains()
	if len(mixed) == 0 {
		t.Fatal("no mixed Java/native chains found")
	}
	for _, cs := range mixed {
		if !strings.Contains(cs.Chain, "*") {
			t.Errorf("mixed chain %q has no native frame", cs.Chain)
		}
		if !cs.Mixed {
			t.Errorf("chain %q returned by MixedChains but Mixed=false", cs.Chain)
		}
	}
	// The J2N->N2J round trip is the paper's showcase capability.
	found := false
	for _, cs := range mixed {
		if strings.Contains(cs.Chain, "nwork* > callback") {
			found = true
		}
	}
	if !found {
		t.Error("native-to-Java callback chain not detected")
	}
}

func TestChainCallCounts(t *testing.T) {
	spec := testSpec()
	agent, _ := runChains(t, spec)
	byChain := map[string]ChainStat{}
	for _, cs := range agent.Chains() {
		byChain[cs.Chain] = cs
	}
	natChain := byChain["main > worker > nwork*"]
	if natChain.Calls != spec.ExpectedNativeCalls() {
		t.Fatalf("nwork chain calls = %d, want %d", natChain.Calls, spec.ExpectedNativeCalls())
	}
	cb := byChain["main > worker > nwork* > callback"]
	if cb.Calls != spec.ExpectedJNICallbacks() {
		t.Fatalf("callback chain calls = %d, want %d", cb.Calls, spec.ExpectedJNICallbacks())
	}
	helper := byChain["main > worker > helper"]
	if helper.Calls != uint64(spec.OuterIters*spec.CallsPerIter) {
		t.Fatalf("helper chain calls = %d, want %d",
			helper.Calls, spec.OuterIters*spec.CallsPerIter)
	}
}

func TestChainExclusiveCyclesSum(t *testing.T) {
	agent, res := runChains(t, testSpec())
	var sum uint64
	for _, cs := range agent.Chains() {
		sum += cs.ExclusiveCycles
	}
	// Exclusive times partition the measured window; they cannot exceed
	// the run total and should cover most of it.
	if sum == 0 || sum > res.TotalCycles {
		t.Fatalf("chain cycles sum %d out of range (total %d)", sum, res.TotalCycles)
	}
	if float64(sum) < 0.90*float64(res.TotalCycles) {
		t.Fatalf("chains cover %d of %d cycles (<90%%)", sum, res.TotalCycles)
	}
}

func TestChainsReportInterface(t *testing.T) {
	agent, res := runChains(t, testSpec())
	r := res.Report
	if r.AgentName != "CHAINS" {
		t.Fatalf("agent name %q", r.AgentName)
	}
	if r.TotalBytecodeCycles == 0 || r.TotalNativeCycles == 0 {
		t.Fatalf("report components zero: %+v", r)
	}
	_ = agent
}

func TestRenderTop(t *testing.T) {
	agent, _ := runChains(t, testSpec())
	out := agent.RenderTop(3)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header + 3
		t.Fatalf("RenderTop(3) produced %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(out, "chain") {
		t.Fatalf("missing header:\n%s", out)
	}
}

func TestChainsMultiThreaded(t *testing.T) {
	spec := testSpec()
	spec.Threads = 3
	agent, res := runChains(t, spec)
	if len(res.Report.PerThread) != 3 {
		t.Fatalf("per-thread entries = %d", len(res.Report.PerThread))
	}
	// Worker threads enter via "worker" directly (no main frame).
	byChain := map[string]ChainStat{}
	for _, cs := range agent.Chains() {
		byChain[cs.Chain] = cs
	}
	if _, ok := byChain["worker > nwork*"]; !ok {
		t.Error("warehouse-thread chain 'worker > nwork*' missing")
	}
}

func TestChainsDeterministic(t *testing.T) {
	a1, _ := runChains(t, testSpec())
	a2, _ := runChains(t, testSpec())
	c1, c2 := a1.Chains(), a2.Chains()
	if len(c1) != len(c2) {
		t.Fatalf("chain counts differ: %d vs %d", len(c1), len(c2))
	}
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("chain %d differs: %+v vs %+v", i, c1[i], c2[i])
		}
	}
}

package scensearch

import (
	"math/rand"
	"testing"

	"repro/internal/jit"
	"repro/internal/scenarios"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// Fixed search parameters shared by the clean and defect tests, so the
// acceptance criterion "same budget, defect found / clean tree silent"
// is literally the same configuration.
const (
	testSeed   = 7
	testBudget = 60
)

// TestCleanTreeFindsNothing: on the correct tree the fixed-seed budget
// must complete with zero findings — the search's false-positive
// contract, and the configuration CI's search-smoke job runs.
func TestCleanTreeFindsNothing(t *testing.T) {
	tel := telemetry.New(false)
	res, err := Search(Config{Seed: testSeed, Budget: testBudget, Oracle: "all", Tel: tel})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) != 0 {
		t.Fatalf("clean tree produced findings: %+v", res.Findings[0].Verdict)
	}
	if res.Iterations != testBudget {
		t.Fatalf("iterations = %d, want the full budget %d", res.Iterations, testBudget)
	}
	if res.Evals < testBudget {
		t.Fatalf("evals = %d, below one per candidate", res.Evals)
	}
	if tel.Metrics() == nil {
		t.Fatal("telemetry recorder lost its registry")
	}
}

// TestDefectFoundAndMinimized is the issue's acceptance criterion: with
// the guarded off-by-one armed in the jit's fused multiply-add, the same
// fixed seed/budget search finds the divergence and minimizes it to a
// scenario of at most 3 phases whose pins record the correct
// (interpreter) observables.
func TestDefectFoundAndMinimized(t *testing.T) {
	if err := jit.SetTestDefect(jit.TestDefectMulAdd); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := jit.SetTestDefect(""); err != nil {
			t.Fatal(err)
		}
	}()
	res, err := Search(Config{Seed: testSeed, Budget: testBudget, Oracle: "engines"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) == 0 {
		t.Fatalf("defect not found in %d iterations (%d evals)", res.Iterations, res.Evals)
	}
	f := res.Findings[0]
	if f.Oracle != "engines" {
		t.Fatalf("oracle = %q", f.Oracle)
	}
	if n := len(f.Scenario.Workload.Phases); n > 3 {
		t.Fatalf("minimized scenario still has %d phases: %+v", n, f.Scenario.Workload)
	}
	if f.Scenario.Pins == nil {
		t.Fatal("finding lacks pins")
	}
	if !f.Verdict.Diverged() {
		t.Fatal("finding's verdict does not diverge")
	}
	// The pins are recorded from the instrumented loop, so they hold even
	// while the jit defect is live…
	if err := f.Scenario.VerifyPins(); err != nil {
		t.Fatal(err)
	}
	// …and the minimized scenario round-trips through the file format.
	data, err := scenarios.Marshal([]scenarios.Scenario{f.Scenario})
	if err != nil {
		t.Fatal(err)
	}
	back, err := scenarios.ParseBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Name() != f.Scenario.Name() {
		t.Fatalf("round trip = %+v", back)
	}
	// Disarmed, the found scenario replays clean: the regression test a
	// finding turns into.
	if err := jit.SetTestDefect(""); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(f.Scenario); err != nil {
		t.Fatal(err)
	}
}

// TestSearchDeterministic: equal seeds replay the identical search.
func TestSearchDeterministic(t *testing.T) {
	run := func() *Result {
		res, err := Search(Config{Seed: 42, Budget: 20, Oracle: "loops"})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Iterations != b.Iterations || a.Evals != b.Evals || len(a.Findings) != len(b.Findings) {
		t.Fatalf("search is not deterministic: %+v vs %+v", a, b)
	}
}

// TestExtrasJudgedFirst: caller-provided scenarios are evaluated
// unmutated before any mutation effort, so a regression corpus
// re-diverges immediately.
func TestExtrasJudgedFirst(t *testing.T) {
	if err := jit.SetTestDefect(jit.TestDefectMulAdd); err != nil {
		t.Fatal(err)
	}
	defer jit.SetTestDefect("")
	// A bytecode kernel rich in the (x*a)+b recurrence.
	extra := scenarios.Scenario{
		Family: "custom",
		Workload: workloads.Workload{
			Name: "known-bad", ClassName: "t/B", OuterIters: 32,
			Phases: []workloads.Phase{{Kind: "bytecode", Calls: 8, Work: 16}},
		},
	}
	res, err := Search(Config{Seed: 1, Budget: 5, Oracle: "engines",
		Extra: []scenarios.Scenario{extra}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) == 0 || res.Findings[0].Iteration != 1 {
		t.Fatalf("extra scenario was not judged first: %+v", res)
	}
}

// TestUnknownOracle: a misspelled oracle is an error, not a silent
// no-op search.
func TestUnknownOracle(t *testing.T) {
	if _, err := Search(Config{Seed: 1, Budget: 1, Oracle: "warp"}); err == nil {
		t.Fatal("unknown oracle accepted")
	}
	if _, err := Search(Config{Seed: 1, Budget: 0}); err == nil {
		t.Fatal("zero budget accepted")
	}
}

// TestMutateStaysValid: the grammar must emit only validatable
// workloads — the property the fuzz harness extends to arbitrary seeds.
func TestMutateStaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, base := range seedWorkloads() {
		w := base
		for i := 0; i < 200; i++ {
			w = Mutate(rng, w, "m")
			if err := w.Validate(); err != nil {
				t.Fatalf("mutation %d of %s invalid: %v\n%+v", i, base.Name, err, w)
			}
		}
	}
}

package harness

import (
	"context"
	"errors"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/jit"
	"repro/internal/scenarios"
	"repro/internal/workloads"
)

// TestPaperTablesGolden pins the acceptance criterion of the scenario
// refactor: the rendered Table I + Table II output at scale 8 is
// byte-identical to the pre-refactor harness (the golden was captured
// before the workload layer moved to phases), sequential and parallel.
func TestPaperTablesGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/paper_tables_scale8.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, parallelism := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.Runs = 1
		cfg.Scale = 8
		cfg.Parallelism = parallelism
		rows1, err := TableI(cfg)
		if err != nil {
			t.Fatal(err)
		}
		geo, err := GeoMeanRow(rows1)
		if err != nil {
			t.Fatal(err)
		}
		t1, err := RenderTableI(rows1, geo)
		if err != nil {
			t.Fatal(err)
		}
		rows2, err := TableII(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t2, err := RenderTableII(rows2)
		if err != nil {
			t.Fatal(err)
		}
		got := t1 + "\n" + t2
		if got != string(golden) {
			t.Errorf("parallelism %d: tables diverged from the pre-refactor golden:\n--- got ---\n%s--- want ---\n%s",
				parallelism, got, golden)
		}
	}
}

// campaignTestConfig keeps campaign tests fast.
func campaignTestConfig() Config {
	cfg := DefaultConfig()
	cfg.Runs = 1
	cfg.Scale = 25
	return cfg
}

// TestCampaignAllFamilies: the whole registry (paper + the four synthetic
// families) runs clean under none+ipa, rows arrive scenario-major in
// registry order, and every scenario's expected-value checks pass.
func TestCampaignAllFamilies(t *testing.T) {
	scns, err := scenarios.Profile("all")
	if err != nil {
		t.Fatal(err)
	}
	camp := Campaign{Scenarios: scns, Agents: []string{"none", "ipa"}, Config: campaignTestConfig()}
	var streamed []string
	res, err := camp.Run(context.Background(), func(r CampaignRow) error {
		streamed = append(streamed, r.Scenario.Name()+"/"+r.AgentName)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2*len(scns) {
		t.Fatalf("rows = %d, want %d", len(res.Rows), 2*len(scns))
	}
	if len(streamed) != len(res.Rows) {
		t.Fatalf("streamed %d rows, returned %d", len(streamed), len(res.Rows))
	}
	for i, r := range res.Rows {
		wantKey := scns[i/2].Name() + "/" + []string{"none", "ipa"}[i%2]
		if got := r.Scenario.Name() + "/" + r.AgentName; got != wantKey {
			t.Fatalf("row %d = %s, want %s", i, got, wantKey)
		}
		if streamed[i] != wantKey {
			t.Fatalf("streamed[%d] = %s, want %s (out of order)", i, streamed[i], wantKey)
		}
		if r.M == nil || r.M.MedianCycles <= 0 {
			t.Fatalf("row %s has no measurement", wantKey)
		}
	}
	if len(res.CheckFailures) != 0 {
		t.Fatalf("check failures: %v", res.CheckFailures)
	}
	text, err := RenderCampaign(res)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"gc-churn", "exc-storm", "chain-abyss", "contend-8-native", "checks: PASS"} {
		if !strings.Contains(text, want) {
			t.Errorf("campaign render missing %q", want)
		}
	}
}

// TestCampaignParallelMatchesSequential extends the determinism guarantee
// to arbitrary campaigns: parallel and sequential runs produce identical
// rendered reports.
func TestCampaignParallelMatchesSequential(t *testing.T) {
	scns, err := scenarios.Profile("exception-heavy")
	if err != nil {
		t.Fatal(err)
	}
	render := func(parallelism int) string {
		cfg := campaignTestConfig()
		cfg.Parallelism = parallelism
		res, err := Campaign{Scenarios: scns, Config: cfg}.Run(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		text, err := RenderCampaign(res)
		if err != nil {
			t.Fatal(err)
		}
		return text
	}
	if render(1) != render(8) {
		t.Fatal("campaign output differs between sequential and parallel execution")
	}
}

// TestCampaignParallelRecyclesArenaBlocks: core.Run parks every finished
// cell's host memory — handle tables, arena blocks, frame arenas — on a
// process-wide free list as one record, so concurrent cells run on
// recycled records while others release theirs. A Parallelism 4
// campaign over every family on the jit engine must still give cell
// payloads and a rendering byte-identical to a sequential one (the CI
// test job runs this under -race). The sequential pass runs first, so
// the parallel one starts from a populated free list.
func TestCampaignParallelRecyclesArenaBlocks(t *testing.T) {
	scns, err := scenarios.Profile("all")
	if err != nil {
		t.Fatal(err)
	}
	render := func(parallelism int) (string, []string) {
		cfg := campaignTestConfig()
		cfg.Parallelism = parallelism
		cfg.Opts.Tier = jit.EngineJIT
		camp := Campaign{Scenarios: scns, Agents: []string{"none", "ipa"}, Config: cfg}
		res, err := camp.Run(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		text, err := RenderCampaign(res)
		if err != nil {
			t.Fatal(err)
		}
		var payloads []string
		for _, row := range res.Rows {
			raw, err := checkpoint.CanonicalPayload(row.M)
			if err != nil {
				t.Fatal(err)
			}
			payloads = append(payloads, row.Scenario.Name()+"/"+row.AgentName+" "+string(raw))
		}
		return text, payloads
	}
	seq, seqPayloads := render(1)
	par, parPayloads := render(4)
	if len(seqPayloads) != len(parPayloads) {
		t.Fatalf("%d sequential cells, %d parallel", len(seqPayloads), len(parPayloads))
	}
	for i := range seqPayloads {
		if seqPayloads[i] != parPayloads[i] {
			t.Fatalf("cell payload differs:\n--- seq\n%s\n--- par\n%s", seqPayloads[i], parPayloads[i])
		}
	}
	if seq != par {
		t.Fatalf("parallel campaign differs from sequential:\n--- seq\n%s\n--- par\n%s", seq, par)
	}
}

// TestCampaignEmitError: a rejected row emission aborts the campaign.
func TestCampaignEmitError(t *testing.T) {
	scns, err := scenarios.Profile("gc-heavy")
	if err != nil {
		t.Fatal(err)
	}
	reject := errors.New("row rejected")
	_, err = Campaign{Scenarios: scns, Agents: []string{"none"}, Config: campaignTestConfig()}.
		Run(context.Background(), func(CampaignRow) error { return reject })
	if !errors.Is(err, reject) {
		t.Fatalf("err = %v, want emit error", err)
	}
}

// TestEvaluateChecks exercises every check kind against a synthetic
// scenario, both passing and failing.
func TestEvaluateChecks(t *testing.T) {
	sc := scenarios.Scenario{
		Family: "custom",
		Workload: workloads.Workload{
			Name: "checks-w", ClassName: "t/Checks", OuterIters: 200,
			Phases: []workloads.Phase{
				{Kind: workloads.PhaseBytecode, Calls: 4, Work: 4},
				{Kind: workloads.PhaseNative, Calls: 2, Work: 30, JNIEvery: 4, CallbackWork: 3},
			},
		},
		Checks: scenarios.Checks{
			MinNativePct: 0.1, MaxNativePct: 60,
			MinNativeCalls: 2, MinJNICalls: 1, MinThreads: 1,
			MaxIPAOverheadPct: 50,
		},
	}
	cfg := campaignTestConfig()
	res, err := Campaign{Scenarios: []scenarios.Scenario{sc}, Config: cfg}.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CheckFailures) != 0 {
		t.Fatalf("well-behaved scenario failed checks: %v", res.CheckFailures)
	}
	// Count minimums are declared at full size; a heavily scaled run must
	// scale them down rather than fail a healthy scenario.
	deep := campaignTestConfig()
	deep.Scale = 100000 // one iteration per run
	res, err = Campaign{Scenarios: []scenarios.Scenario{sc}, Config: deep}.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CheckFailures) != 0 {
		t.Fatalf("scaled-down run failed full-size count bounds: %v", res.CheckFailures)
	}
	// A bound equal to the exact full-size count must survive a scale
	// that does not divide the iteration count: the workload floors
	// iterations, so the bound must floor too.
	tight := scenarios.Scenario{
		Family: "custom",
		Workload: workloads.Workload{
			Name: "tight-bound", ClassName: "t/Tight", OuterIters: 10,
			Phases: []workloads.Phase{{Kind: workloads.PhaseNative, Calls: 1, Work: 5}},
		},
		Checks: scenarios.Checks{MinNativeCalls: 10},
	}
	odd := campaignTestConfig()
	odd.Scale = 4 // floor(10/4) = 2 iterations -> 2 native calls
	res, err = Campaign{Scenarios: []scenarios.Scenario{tight}, Agents: []string{"none"}, Config: odd}.
		Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CheckFailures) != 0 {
		t.Fatalf("exact full-size bound failed at non-dividing scale: %v", res.CheckFailures)
	}
	// Impossible bounds must each produce a failure line naming the scenario.
	strict := sc
	strict.Checks = scenarios.Checks{
		MinNativePct: 99, MinNativeCalls: 1 << 40, MinJNICalls: 1 << 40,
		MinThreads: 32, MaxIPAOverheadPct: 0.000001,
	}
	res, err = Campaign{Scenarios: []scenarios.Scenario{strict}, Config: cfg}.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CheckFailures) != 5 {
		t.Fatalf("failures = %v, want all 5 bounds violated", res.CheckFailures)
	}
	for _, f := range res.CheckFailures {
		if !strings.HasPrefix(f, "checks-w: ") {
			t.Errorf("failure %q does not name the scenario", f)
		}
	}
}

// TestRenderTableHardening: empty and non-finite row sets are descriptive
// errors, never NaN-bearing tables or panics.
func TestRenderTableHardening(t *testing.T) {
	if _, err := RenderTableI(nil, TableIRow{}); err == nil {
		t.Fatal("RenderTableI(nil) succeeded")
	}
	nan := []TableIRow{{Benchmark: "bad", OverheadSPA: math.NaN()}}
	if _, err := RenderTableI(nan, TableIRow{Benchmark: "geom. mean"}); err == nil ||
		!strings.Contains(err.Error(), "bad") {
		t.Fatalf("NaN row rendered: %v", err)
	}
	if _, err := RenderTableII(nil); err == nil {
		t.Fatal("RenderTableII(nil) succeeded")
	}
	if _, err := RenderTableII([]TableIIRow{{Benchmark: "bad", NativePct: math.NaN()}}); err == nil {
		t.Fatal("NaN Table II row rendered")
	}
	if _, err := RenderCampaign(&CampaignResult{}); err == nil {
		t.Fatal("empty campaign rendered")
	}
}

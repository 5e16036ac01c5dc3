package telemetry_test

import (
	"context"
	"testing"

	"repro/internal/harness"
	"repro/internal/scenarios"
	"repro/internal/telemetry"
)

// TestRecorderCallsPerCell pins where the program reaches the recorder:
// every call site is per cell or per repetition, so the all-family
// campaign makes as many recorder calls at scale 100 as at scale 25,
// though the simulation does four times the work. A call on a path that
// runs per block, per instruction or per upcall — even an
// allocation-free Count on a fixed key, which the allocation bounds of
// harness's TestTelemetryAllocCost do not see — makes the counts differ.
func TestRecorderCallsPerCell(t *testing.T) {
	scns, err := scenarios.Profile("all")
	if err != nil {
		t.Fatal(err)
	}
	calls := func(scale int) uint64 {
		cfg := harness.DefaultConfig()
		cfg.Runs = 1
		cfg.Scale = scale
		cfg.Parallelism = 1
		cfg.Telemetry = telemetry.New(true)
		camp := harness.Campaign{Scenarios: scns, Agents: []string{"none", "ipa"}, Config: cfg}
		if _, err := camp.Run(context.Background(), nil); err != nil {
			t.Fatal(err)
		}
		return telemetry.CallCount(cfg.Telemetry)
	}
	small, large := calls(100), calls(25)
	t.Logf("recorder calls: %d at scale 100, %d at scale 25", small, large)
	if small == 0 || small != large {
		t.Fatalf("recorder calls: %d at scale 100, %d at scale 25; want the same nonzero count", small, large)
	}
}

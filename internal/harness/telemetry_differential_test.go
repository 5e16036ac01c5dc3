package harness

import (
	"context"
	"os"
	"runtime"
	"testing"

	"repro/internal/jit"
	"repro/internal/scenarios"
	"repro/internal/telemetry"
)

// TestTelemetryDifferentialGolden is the never-in-payloads invariant at
// its sharpest: the paper tables at scale 8 with full telemetry enabled
// (span buffering AND the metrics registry) are byte-identical to the
// pre-telemetry golden on every engine × parallelism combination. The
// recorder is live — spans buffer, counters advance — yet not one byte
// of the canonical output moves.
func TestTelemetryDifferentialGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/paper_tables_scale8.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []jit.Engine{jit.EngineInterp, jit.EngineJIT, jit.EngineAuto} {
		for _, parallelism := range []int{1, 4} {
			tel := telemetry.New(true)
			cfg := DefaultConfig()
			cfg.Runs = 1
			cfg.Scale = 8
			cfg.Parallelism = parallelism
			cfg.Opts.Tier = engine
			cfg.Telemetry = tel
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
			if got := t1 + "\n" + t2; got != string(golden) {
				t.Errorf("engine=%s parallelism=%d: telemetry-on tables diverged from golden:\n--- got ---\n%s--- want ---\n%s",
					engine, parallelism, got, golden)
			}
			if tel.EventCount() == 0 {
				t.Fatalf("engine=%s parallelism=%d: recorder buffered no spans — the differential proved nothing", engine, parallelism)
			}
		}
	}
}

// TestTelemetryCampaignOnOffIdentical runs the full scenario catalogue
// twice — recorder off (nil) and fully on — and asserts the rendered
// campaign is byte-identical, while the on-run's registry actually
// observed every cell.
func TestTelemetryCampaignOnOffIdentical(t *testing.T) {
	scns, err := scenarios.Profile("all")
	if err != nil {
		t.Fatal(err)
	}
	run := func(tel *telemetry.Recorder) string {
		cfg := testConfig()
		cfg.Parallelism = 4
		cfg.Telemetry = tel
		camp := Campaign{Scenarios: scns, Agents: []string{"none", "ipa"}, Config: cfg}
		res, err := camp.Run(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		text, err := RenderCampaign(res)
		if err != nil {
			t.Fatal(err)
		}
		return text
	}
	off := run(nil)
	tel := telemetry.New(true)
	on := run(tel)
	if on != off {
		t.Fatalf("campaign output diverged with telemetry on:\n--- off ---\n%s--- on ---\n%s", off, on)
	}
	cells := uint64(0)
	for _, fam := range scenarios.Families() {
		cells += tel.Metrics().Counter(fam, telemetry.MetricCells)
	}
	if want := uint64(len(scns) * 2); cells != want {
		t.Fatalf("registry counted %d cells across families, want %d", cells, want)
	}
}

// maxTelemetryAllocsPerCell and maxTelemetryBytesPerCell bound what a
// live recorder adds to one campaign cell: its spans, their args and the
// registry's counters and histograms. A campaign of 23 cells measured
// about 19 extra allocations per cell, stable to ±2 across runs, and
// 2.2–2.6 KB.
const (
	maxTelemetryAllocsPerCell = 32
	maxTelemetryBytesPerCell  = 8 << 10
)

// TestTelemetryAllocCost is the deterministic telemetry-cost gate: the
// all-family campaign (scale 100, agent none, one worker) with the
// recorder nil and fully live (spans + metrics) may differ by fewer than
// maxTelemetryAllocsPerCell allocations and maxTelemetryBytesPerCell
// bytes per cell. Instrumentation that records per instruction, per
// block or per call instead of per cell multiplies that difference by
// the work and fails here: a new counter key per call shows in the
// allocation count, a buffered trace event per call in the bytes (the
// event buffer grows by doubling, so its allocation count barely moves).
func TestTelemetryAllocCost(t *testing.T) {
	scns, err := scenarios.Profile("all")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Scale = 100
	cfg.Parallelism = 1
	camp := Campaign{Scenarios: scns, Agents: []string{"none"}, Config: cfg}
	run := func(tel *telemetry.Recorder) {
		c := camp
		c.Config.Telemetry = tel
		if _, err := c.Run(context.Background(), nil); err != nil {
			t.Fatal(err)
		}
	}
	run(nil) // fill the process's one-time caches before either leg
	const runs = 3
	cost := func(on bool) (allocs, bytes float64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(runs, func() {
			var tel *telemetry.Recorder
			if on {
				tel = telemetry.New(true)
			}
			run(tel)
		})
		runtime.ReadMemStats(&after)
		// AllocsPerRun makes one warm-up call before its timed runs.
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
	}
	offAllocs, offBytes := cost(false)
	onAllocs, onBytes := cost(true)
	cells := float64(len(scns) * len(camp.Agents))
	allocsPerCell := (onAllocs - offAllocs) / cells
	bytesPerCell := (onBytes - offBytes) / cells
	t.Logf("per campaign of %.0f cells: %.0f allocs / %.0f B off, %.0f allocs / %.0f B on; extra per cell %.1f allocs, %.0f B",
		cells, offAllocs, offBytes, onAllocs, onBytes, allocsPerCell, bytesPerCell)
	if allocsPerCell >= maxTelemetryAllocsPerCell {
		t.Errorf("telemetry adds %.1f allocations per cell, want < %d", allocsPerCell, maxTelemetryAllocsPerCell)
	}
	if bytesPerCell >= maxTelemetryBytesPerCell {
		t.Errorf("telemetry adds %.0f bytes per cell, want < %d", bytesPerCell, maxTelemetryBytesPerCell)
	}
}

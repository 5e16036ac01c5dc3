package harness

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/jit"
	"repro/internal/scenarios"
)

// engineConfig returns the test campaign configuration pinned to one
// execution engine.
func engineConfig(engine jit.Engine, parallelism int) Config {
	cfg := testConfig()
	cfg.Parallelism = parallelism
	cfg.Opts.Tier = engine
	return cfg
}

// stripTier clears the host-side tier bookkeeping from campaign rows:
// it is the one field that legitimately differs between engines, and
// everything else must be byte-identical.
func stripTier(res *CampaignResult) {
	for i := range res.Rows {
		if res.Rows[i].M != nil {
			res.Rows[i].M.Tier = jit.Stats{}
		}
	}
}

// TestEngineDifferentialAllFamilies is the whole-system cross-engine
// guarantee: every scenario family — the paper profile and each
// synthetic family, tier-sensitive included — measured under none, SPA
// and IPA, produces byte-identical campaign rows, reports, ground truth
// and check verdicts on -engine=interp, jit and auto, sequentially and
// in parallel.
func TestEngineDifferentialAllFamilies(t *testing.T) {
	scns, err := scenarios.Profile("all")
	if err != nil {
		t.Fatal(err)
	}
	run := func(engine jit.Engine, parallelism int) (*CampaignResult, string) {
		camp := Campaign{Scenarios: scns, Config: engineConfig(engine, parallelism)}
		res, err := camp.Run(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		stripTier(res)
		text, err := RenderCampaign(res)
		if err != nil {
			t.Fatal(err)
		}
		return res, text
	}
	baseRes, baseText := run(jit.EngineInterp, 1)
	for _, tc := range []struct {
		name        string
		engine      jit.Engine
		parallelism int
	}{
		{"jit-sequential", jit.EngineJIT, 1},
		{"jit-parallel", jit.EngineJIT, 8},
		{"auto-sequential", jit.EngineAuto, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, text := run(tc.engine, tc.parallelism)
			if text != baseText {
				t.Fatalf("rendered campaign diverged from interp baseline:\n--- interp\n%s\n--- %s\n%s", baseText, tc.name, text)
			}
			if !reflect.DeepEqual(res.Rows, baseRes.Rows) {
				t.Fatal("campaign rows diverged from interp baseline beyond rendering")
			}
			if !reflect.DeepEqual(res.CheckFailures, baseRes.CheckFailures) {
				t.Fatalf("check verdicts diverged: %v vs %v", res.CheckFailures, baseRes.CheckFailures)
			}
		})
	}
}

// TestEngineDifferentialScale8 re-runs the cross-engine guarantee at
// scale 8 — several times the work of the regular test configuration, so
// every scenario's hot loops run long and every call-heavy
// phase runs long enough to exercise inline sites — and asserts the full
// campaign (cycles, instruction counts, reports, check verdicts) is
// byte-identical across -engine=interp|jit|auto, sequentially and with 8
// parallel workers.
func TestEngineDifferentialScale8(t *testing.T) {
	scns, err := scenarios.Profile("all")
	if err != nil {
		t.Fatal(err)
	}
	run := func(engine jit.Engine, parallelism int) (*CampaignResult, string) {
		cfg := engineConfig(engine, parallelism)
		cfg.Scale = 8
		camp := Campaign{Scenarios: scns, Agents: []string{"none"}, Config: cfg}
		res, err := camp.Run(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		stripTier(res)
		text, err := RenderCampaign(res)
		if err != nil {
			t.Fatal(err)
		}
		return res, text
	}
	baseRes, baseText := run(jit.EngineInterp, 1)
	for _, tc := range []struct {
		name        string
		engine      jit.Engine
		parallelism int
	}{
		{"interp-parallel", jit.EngineInterp, 8},
		{"jit-sequential", jit.EngineJIT, 1},
		{"jit-parallel", jit.EngineJIT, 8},
		{"auto-sequential", jit.EngineAuto, 1},
		{"auto-parallel", jit.EngineAuto, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, text := run(tc.engine, tc.parallelism)
			if text != baseText {
				t.Fatalf("scale-8 campaign diverged from interp baseline:\n--- interp\n%s\n--- %s\n%s", baseText, tc.name, text)
			}
			if !reflect.DeepEqual(res.Rows, baseRes.Rows) {
				t.Fatal("scale-8 campaign rows diverged from interp baseline beyond rendering")
			}
			if !reflect.DeepEqual(res.CheckFailures, baseRes.CheckFailures) {
				t.Fatalf("check verdicts diverged: %v vs %v", res.CheckFailures, baseRes.CheckFailures)
			}
		})
	}
}

// TestEngineDifferentialTableI: the paper's Table I — the headline
// artifact — is identical under the jit engine, including the rendered
// text.
func TestEngineDifferentialTableI(t *testing.T) {
	render := func(engine jit.Engine) string {
		rows, err := TableI(engineConfig(engine, 0))
		if err != nil {
			t.Fatal(err)
		}
		geo, err := GeoMeanRow(rows)
		if err != nil {
			t.Fatal(err)
		}
		text, err := RenderTableI(rows, geo)
		if err != nil {
			t.Fatal(err)
		}
		return text
	}
	if interp, jitted := render(jit.EngineInterp), render(jit.EngineJIT); interp != jitted {
		t.Fatalf("Table I diverged across engines:\n--- interp\n%s\n--- jit\n%s", interp, jitted)
	}
}

// TestWarmupInvariance: warmup repetitions are simulation-invisible —
// the measured values match a warmup-free run exactly — while still
// driving the tier through promotion, which the stats prove.
func TestWarmupInvariance(t *testing.T) {
	sc, err := scenarios.Get("tier-warmup")
	if err != nil {
		t.Fatal(err)
	}
	cold := engineConfig(jit.EngineJIT, 1)
	warm := cold
	warm.Warmup = 2
	mCold, err := MeasureScenario(context.Background(), sc, "none", cold)
	if err != nil {
		t.Fatal(err)
	}
	mWarm, err := MeasureScenario(context.Background(), sc, "none", warm)
	if err != nil {
		t.Fatal(err)
	}
	if mCold.MedianCycles != mWarm.MedianCycles || mCold.Truth != mWarm.Truth ||
		mCold.MedianThroughput != mWarm.MedianThroughput {
		t.Fatalf("warmup changed measured values:\ncold %+v\nwarm %+v", mCold, mWarm)
	}
	if mWarm.Tier.MethodsCompiled == 0 || mWarm.Tier.CompiledFrames == 0 {
		t.Fatalf("tier-warmup scenario never promoted under -engine=jit: %+v", mWarm.Tier)
	}
	// Negative warmup normalizes to zero rather than erroring.
	neg := cold
	neg.Warmup = -3
	if _, err := MeasureScenario(context.Background(), sc, "none", neg); err != nil {
		t.Fatal(err)
	}
}

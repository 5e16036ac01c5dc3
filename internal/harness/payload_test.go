package harness

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/jit"
	"repro/internal/scenarios"
	"repro/internal/telemetry"
)

// payloadCounters are the per-family telemetry counters runCell reads
// off a cell's Measurement, cached or not; counterValues gives their
// values for one Measurement, in the same order.
var payloadCounters = []string{
	telemetry.MetricTierCompiled, telemetry.MetricTierDeopts,
	telemetry.MetricTierCompiledFrm, telemetry.MetricTierInlined, telemetry.MetricTierFallback,
	telemetry.MetricGCMinor, telemetry.MetricGCMajor, telemetry.MetricGCTenured,
}

func counterValues(m *Measurement) []uint64 {
	return []uint64{
		m.Tier.MethodsCompiled, m.Tier.DeoptFrames,
		m.Tier.CompiledFrames, m.Tier.InlinedCalls, m.Tier.FallbackChunks,
		m.GC.MinorGCs, m.GC.MajorGCs, m.GC.TenurePromotions,
	}
}

// TestMeasurementPayloadContract pins what a cell's canonical payload
// holds, on the full catalogue per engine: every payload is a fixed
// point of decode and re-encode, none carries the tier's per-method rows
// or op-free count, and a warm campaign served wholly from the cache
// feeds telemetry the same per-family tier and GC counters as the cold
// campaign that ran every cell — and both the counters MeasureScenario
// produced before any encoding.
func TestMeasurementPayloadContract(t *testing.T) {
	scns, err := scenarios.Profile("all")
	if err != nil {
		t.Fatal(err)
	}
	agents := []string{"none", "ipa"}
	for _, engine := range []jit.Engine{jit.EngineInterp, jit.EngineJIT} {
		t.Run(engine.String(), func(t *testing.T) {
			dir := t.TempDir()
			cfg := testConfig()
			cfg.Opts.Tier = engine
			measured := map[string][]uint64{}
			for _, sc := range scns {
				for _, agent := range agents {
					m, err := MeasureScenario(context.Background(), sc, agent, cfg)
					if err != nil {
						t.Fatal(err)
					}
					sum := measured[sc.Family]
					if sum == nil {
						sum = make([]uint64, len(payloadCounters))
						measured[sc.Family] = sum
					}
					for i, v := range counterValues(m) {
						sum[i] += v
					}
				}
			}
			run := func() (*CampaignResult, *telemetry.Registry) {
				tel := telemetry.New(false)
				cfg := cfg
				cfg.Cache = openTestCache(t, dir)
				cfg.Telemetry = tel
				camp := Campaign{Scenarios: scns, Agents: agents, Config: cfg}
				res, err := camp.Run(context.Background(), nil)
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed > 0 {
					t.Fatalf("%d cells failed", res.Failed)
				}
				return res, tel.Metrics()
			}
			cold, coldMetrics := run()
			for _, r := range cold.Rows {
				raw, err := checkpoint.CanonicalPayload(r.M)
				if err != nil {
					t.Fatal(err)
				}
				var back Measurement
				if err := json.Unmarshal(raw, &back); err != nil {
					t.Fatal(err)
				}
				again, err := checkpoint.CanonicalPayload(&back)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(raw, again) {
					t.Errorf("%s/%s: payload re-encodes differently:\n%s\n%s", r.Scenario.Name(), r.AgentName, raw, again)
				}
				for _, field := range []string{`"PerMethod"`, `"SuperinstrPairs"`} {
					if bytes.Contains(raw, []byte(field)) {
						t.Errorf("%s/%s: payload carries %s", r.Scenario.Name(), r.AgentName, field)
					}
				}
				if engine == jit.EngineInterp && !bytes.Contains(raw, []byte(`"Tier":{}`)) {
					t.Errorf("%s/%s: interp payload carries tier counters: %s", r.Scenario.Name(), r.AgentName, raw)
				}
			}

			_, warmMetrics := run()
			var hits, compiled, collections uint64
			for _, fam := range scenarios.Families() {
				hits += warmMetrics.Counter(fam, telemetry.MetricCacheHits)
				compiled += coldMetrics.Counter(fam, telemetry.MetricTierCompiled)
				collections += coldMetrics.Counter(fam, telemetry.MetricGCMajor)
				for i, name := range payloadCounters {
					var want uint64
					if sum := measured[fam]; sum != nil {
						want = sum[i]
					}
					if c, w := coldMetrics.Counter(fam, name), warmMetrics.Counter(fam, name); c != want || w != want {
						t.Errorf("family %s: %s is %d cold, %d warm, %d measured", fam, name, c, w, want)
					}
				}
			}
			if hits != uint64(len(cold.Rows)) {
				t.Fatalf("warm campaign served %d of %d cells from the cache", hits, len(cold.Rows))
			}
			if collections == 0 || (engine == jit.EngineJIT && compiled == 0) {
				t.Fatalf("cold campaign made %d major collections and compiled %d methods: the counters were never exercised", collections, compiled)
			}
		})
	}
}

// keyUnder is checkpoint.CellKey's derivation under an explicit payload
// format: the hex sha256 of the format and the identity's JSON line.
func keyUnder(t *testing.T, format string, id CellIdentity) string {
	t.Helper()
	h := sha256.New()
	io.WriteString(h, format)
	if err := json.NewEncoder(h).Encode(id); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestLeanPayloadV3 pins payload format v3: a jbb2005 IPA cell's payload
// carries the report totals but no per-thread rows, the cell's key is
// checkpoint.CellKey of its CellIdentity under "jvmsim-payload-v3", and
// a cache warmed with v2 entries (keyed under "jvmsim-payload-v2", their
// reports carrying per-thread rows) serves no hit and fails no verify
// under -cache-verify 1: every cell misses, runs and is stored anew.
func TestLeanPayloadV3(t *testing.T) {
	var jbb scenarios.Scenario
	paper, err := scenarios.Profile("paper")
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range paper {
		if sc.Name() == "jbb2005" {
			jbb = sc
		}
	}
	if len(jbb.WarehouseSequence) == 0 {
		t.Fatal("the paper profile has no jbb2005 warehouse sequence")
	}
	cfg := testConfig()
	m, err := MeasureScenario(context.Background(), jbb, "ipa", cfg)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := checkpoint.CanonicalPayload(m)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte(`"PerThread"`)) || !bytes.Contains(raw, []byte(`"JNICalls":`)) {
		t.Fatalf("jbb2005/ipa payload: want the report totals without per-thread rows, got %s", raw)
	}
	key, err := cellKey(jbb, "ipa", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := keyUnder(t, "jvmsim-payload-v3", cellIdentity(jbb, "ipa", cfg)); key != want {
		t.Fatalf("cell key %s, want %s (CellKey of the CellIdentity under jvmsim-payload-v3)", key, want)
	}

	dir := t.TempDir()
	cache := openTestCache(t, dir)
	agents := []string{"none", "ipa"}
	for _, agent := range agents {
		v2, err := MeasureScenario(context.Background(), jbb, agent, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if v2.Report != nil {
			v2.Report.PerThread = []core.ThreadStats{{ThreadID: 1, Name: "main", JNICalls: 1}}
		}
		payload, err := checkpoint.CanonicalPayload(v2)
		if err != nil {
			t.Fatal(err)
		}
		if err := cache.Put(keyUnder(t, "jvmsim-payload-v2", cellIdentity(jbb, agent, cfg)), payload); err != nil {
			t.Fatal(err)
		}
	}
	cfg.Cache = cache
	cfg.CacheVerify = 1
	res, err := Campaign{Scenarios: []scenarios.Scenario{jbb}, Agents: agents, Config: cfg}.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed > 0 {
		t.Fatalf("%d cells failed over a v2-warmed cache: %v", res.Failed, res.Rows)
	}
	if s := cache.Stats(); s.Hits != 0 || s.Misses != 2 || s.Verified != 0 || s.Puts != 4 {
		t.Fatalf("v2-warmed cache: %+v, want 0 hits, 2 misses, 0 verified, 4 puts", s)
	}
}

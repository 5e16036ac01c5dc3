package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"testing"
	"time"
)

// bounds reads the end-to-end bounds the benchmark declares.
func bounds(t *testing.T) map[string]float64 {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}

// burnHook plants a slowdown: it burns a fixed amount of CPU after every
// cell, inside the interval the benchmark times.
type burnHook struct{ per time.Duration }

func (h burnHook) BeforeAttempt(context.Context, string, int) error { return nil }
func (h burnHook) AfterCell(string, error)                          { burn(h.per) }

// TestPlantedSlowdownLeavesBound is the benchmark's sensitivity check on
// cache-rerun: a slowdown of twice the op_ref_cpu_p50_ms bound, planted by
// burning CPU inside each op, moves that metric beyond the bound, while a
// second set of the same code stays inside it. The three sets run
// interleaved pass by pass, so they see the same host, and each keeps
// its own calibrator, as a run of the benchmark does.
func TestPlantedSlowdownLeavesBound(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the cache-rerun workload for a few seconds")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as the benchmark runs
	bound := bounds(t)["op_ref_cpu_p50_ms"]
	if bound <= 0 {
		t.Fatal("BENCHMARK.json declares no op_ref_cpu_p50_ms bound")
	}
	w := &cacheRerun{seed: 11, root: t.TempDir()}
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	type set struct {
		runStats
		cal *calibrator
	}
	pass := func(st *set, n int) float64 {
		out := w.pass(n, nil)
		if out.failure != "" {
			t.Fatal(out.failure)
		}
		st.add(out)
		st.cal.run()
		return out.opCPU[0]
	}
	// p50 is the metric of a set, without the samples-beyond gate.
	p50 := func(st *set) float64 {
		v, _, _ := percentile(st.opCPU, 0.5)
		return v * st.cal.scale()
	}
	a, b, slow := &set{cal: newCalibrator()}, &set{cal: newCalibrator()}, &set{cal: newCalibrator()}
	var probe []float64
	for n := 0; n < 20; n++ {
		probe = append(probe, pass(a, n))
	}
	share := 2 * bound
	cells := len(w.base) * len(agentsNoneIPA) // the median op is a re-run without a variant
	plant := burnHook{per: time.Duration(share * median(probe) / float64(cells))}

	for i := 0; i < 60; i++ {
		n := 100 + 3*i
		pass(a, n)
		pass(b, n+1)
		w.cfg.Hook = plant
		pass(slow, n+2)
		w.cfg.Hook = nil
	}
	same := p50(b)/p50(a) - 1
	planted := p50(slow)/p50(a) - 1
	t.Logf("bound %.2f; same code %+.3f; planted %.2f share %+.3f", bound, same, share, planted)
	if math.Abs(same) > bound {
		t.Errorf("two sets of the same code differ by %+.3f, beyond the bound %.2f", same, bound)
	}
	if planted <= bound {
		t.Errorf("a planted %.0f%% slowdown moved the metric by %+.3f, inside the bound %.2f", share*100, planted, bound)
	}
}

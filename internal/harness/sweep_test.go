package harness

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workloads"
)

func TestSweepTransitionFrequencyMonotone(t *testing.T) {
	cfg := testConfig()
	points, err := SweepTransitionFrequency([]int{0, 2, 8, 32}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("points = %d", len(points))
	}
	// Zero native calls: negligible overhead (only the launcher JNI
	// bracket remains).
	if points[0].IPAOverheadPct > 2 {
		t.Fatalf("overhead at zero transitions = %.2f%%", points[0].IPAOverheadPct)
	}
	// Overhead grows with transition frequency — Section V-A's mechanism.
	for i := 1; i < len(points); i++ {
		if points[i].IPAOverheadPct <= points[i-1].IPAOverheadPct {
			t.Fatalf("overhead not increasing: %+v", points)
		}
		if points[i].TransitionsPerMcycle <= points[i-1].TransitionsPerMcycle {
			t.Fatalf("transition frequency not increasing: %+v", points)
		}
	}
	// Accuracy holds across the sweep.
	for _, p := range points {
		diff := p.MeasuredNativePct - p.TruthNativePct
		if diff < -3 || diff > 3 {
			t.Errorf("n=%d: measured %.2f%% vs truth %.2f%%",
				p.NativeCallsPerIter, p.MeasuredNativePct, p.TruthNativePct)
		}
	}
}

func TestRenderSweep(t *testing.T) {
	cfg := testConfig()
	cfg.Scale = 50
	points, err := SweepTransitionFrequency([]int{1, 16}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := RenderSweep(points)
	for _, want := range []string{"IPA overhead", "trans/Mcycle", "#"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestJBBWarehouseSequenceAggregation confirms the Measure-level protocol:
// the jbb2005 measurement aggregates the 1+2+3+4 warehouse runs.
func TestJBBWarehouseSequenceAggregation(t *testing.T) {
	b, err := workloads.ByName("jbb2005")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	m, err := Measure(b, AgentIPA, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The sequence's report is the sum of the four warehouse runs'
	// reports, each measured on its own.
	var sum core.Report
	for _, warehouses := range b.WarehouseSequence {
		one := b
		one.WarehouseSequence = []int{warehouses}
		mw, err := Measure(one, AgentIPA, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sum.TotalBytecodeCycles += mw.Report.TotalBytecodeCycles
		sum.TotalNativeCycles += mw.Report.TotalNativeCycles
		sum.JNICalls += mw.Report.JNICalls
		sum.NativeMethodCalls += mw.Report.NativeMethodCalls
	}
	got := *m.Report
	sum.AgentName = got.AgentName
	if len(b.WarehouseSequence) != 4 || sum.JNICalls == 0 || !reflect.DeepEqual(got, sum) {
		t.Fatalf("sequence report over %v = %+v, want the warehouse runs' summed totals %+v",
			b.WarehouseSequence, got, sum)
	}
	single := b
	single.WarehouseSequence = nil
	ms, err := Measure(single, AgentIPA, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The sequence executes 2.5x the work of the fixed 4-warehouse run.
	ratio := m.MedianCycles / ms.MedianCycles
	if ratio < 2.0 || ratio > 3.0 {
		t.Fatalf("sequence/single cycle ratio = %.2f, want about 2.5", ratio)
	}
}

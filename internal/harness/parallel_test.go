package harness

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// TestTableIParallelMatchesSequential is the central determinism
// guarantee of the parallel pipeline: with parallelism >= 4 the rendered
// Table I is byte-identical to the sequential one.
func TestTableIParallelMatchesSequential(t *testing.T) {
	seqCfg := testConfig()
	seqCfg.Parallelism = 1
	parCfg := testConfig()
	parCfg.Parallelism = 8

	seqRows, err := TableI(seqCfg)
	if err != nil {
		t.Fatal(err)
	}
	parRows, err := TableI(parCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seqRows, parRows) {
		t.Fatalf("parallel rows differ from sequential:\nseq: %+v\npar: %+v", seqRows, parRows)
	}
	seqGeo, err := GeoMeanRow(seqRows)
	if err != nil {
		t.Fatal(err)
	}
	parGeo, err := GeoMeanRow(parRows)
	if err != nil {
		t.Fatal(err)
	}
	seqText, err := RenderTableI(seqRows, seqGeo)
	if err != nil {
		t.Fatal(err)
	}
	parText, err := RenderTableI(parRows, parGeo)
	if err != nil {
		t.Fatal(err)
	}
	if seqText != parText {
		t.Fatal("rendered Table I differs between sequential and parallel execution")
	}
}

// TestTableIIParallelMatchesSequential extends the guarantee to Table II.
func TestTableIIParallelMatchesSequential(t *testing.T) {
	seqCfg := testConfig()
	seqCfg.Parallelism = 1
	parCfg := testConfig()
	parCfg.Parallelism = 8

	seqRows, err := TableII(seqCfg)
	if err != nil {
		t.Fatal(err)
	}
	parRows, err := TableII(parCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seqRows, parRows) {
		t.Fatalf("parallel Table II differs:\nseq: %+v\npar: %+v", seqRows, parRows)
	}
	seqText, err := RenderTableII(seqRows)
	if err != nil {
		t.Fatal(err)
	}
	parText, err := RenderTableII(parRows)
	if err != nil {
		t.Fatal(err)
	}
	if seqText != parText {
		t.Fatal("rendered Table II differs between sequential and parallel execution")
	}
}

// TestSweepParallelMatchesSequential: the transition-frequency sweep is
// cell-parallel too and must stay deterministic.
func TestSweepParallelMatchesSequential(t *testing.T) {
	points := []int{0, 2, 8}
	seqCfg := testConfig()
	seqCfg.Parallelism = 1
	parCfg := testConfig()
	parCfg.Parallelism = 4
	seq, err := SweepTransitionFrequency(points, seqCfg)
	if err != nil {
		t.Fatal(err)
	}
	par, err := SweepTransitionFrequency(points, parCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel sweep differs:\nseq: %+v\npar: %+v", seq, par)
	}
}

// TestTableIContextCancelled: a cancelled context aborts the campaign
// with the context error instead of producing partial rows.
func TestTableIContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := TableIContext(ctx, testConfig()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// The report-merging math the warehouse aggregation in MeasureContext
// relies on lives in internal/stats; these edge cases pin down the
// behaviors the harness depends on.
func TestMergeReportsEdgeCases(t *testing.T) {
	// Empty row set: nil + nil stays nil.
	if stats.MergeReports(nil, nil) != nil {
		t.Fatal("MergeReports(nil, nil) != nil")
	}
	// Single report: merged copy of the totals, not an alias.
	single := &core.Report{AgentName: "IPA", TotalBytecodeCycles: 7,
		PerThread: []core.ThreadStats{{ThreadID: 1, Name: "main"}}}
	got := stats.MergeReports(nil, single)
	if got == single {
		t.Fatal("MergeReports(nil, r) aliased the input")
	}
	if got.TotalBytecodeCycles != 7 || got.AgentName != "IPA" || got.PerThread != nil {
		t.Fatalf("single merge = %+v", got)
	}
	// Zero-cycle reports merge to a zero report with a defined fraction.
	zero := stats.MergeReports(&core.Report{}, &core.Report{})
	if zero.TotalCycles() != 0 || zero.NativeFraction() != 0 {
		t.Fatalf("zero merge = %+v", zero)
	}
	// Single-thread reports sum their totals and keep no per-thread rows.
	a := &core.Report{PerThread: []core.ThreadStats{{ThreadID: 1}}}
	b := &core.Report{TotalNativeCycles: 3, PerThread: []core.ThreadStats{{ThreadID: 1}}}
	merged := stats.MergeReports(a, b)
	if merged.PerThread != nil || merged.TotalNativeCycles != 3 {
		t.Fatalf("two single-thread merges = %+v", merged)
	}
}

func TestGeoMeanRowEdgeCases(t *testing.T) {
	// Empty row set: no time rows to aggregate.
	if _, err := GeoMeanRow(nil); err == nil {
		t.Fatal("GeoMeanRow(nil) did not fail")
	}
	// Only throughput rows: still an empty time matrix.
	if _, err := GeoMeanRow([]TableIRow{{Benchmark: "jbb", Throughput: true}}); err == nil {
		t.Fatal("GeoMeanRow(throughput-only) did not fail")
	}
	// Zero-cycle rows: geometric mean requires positive samples.
	if _, err := GeoMeanRow([]TableIRow{{Benchmark: "z"}}); err == nil {
		t.Fatal("GeoMeanRow(zero rows) did not fail")
	}
	// A single time row is its own geometric mean.
	g, err := GeoMeanRow([]TableIRow{{Benchmark: "one",
		TimeOriginal: 100, TimeSPA: 300, TimeIPA: 110}})
	if err != nil {
		t.Fatal(err)
	}
	near := func(got, want float64) bool {
		return math.Abs(got-want) < 1e-6*math.Max(1, math.Abs(want))
	}
	if !near(g.TimeOriginal, 100) || !near(g.TimeSPA, 300) || !near(g.TimeIPA, 110) {
		t.Fatalf("single-row geo mean = %+v", g)
	}
	if !near(g.OverheadSPA, 200) || !near(g.OverheadIPA, 10) {
		t.Fatalf("single-row overheads = %+v", g)
	}
}

// TestMeasureParallelismIndependence: the same cell measured alone and as
// part of a parallel campaign yields identical numbers (no shared state
// between cells).
func TestMeasureParallelismIndependence(t *testing.T) {
	b, err := workloads.ByName("javac")
	if err != nil {
		t.Fatal(err)
	}
	alone, err := Measure(b, AgentIPA, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Parallelism = 8
	rows, err := TableII(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Benchmark != "javac" {
			continue
		}
		if r.NativePct != alone.Report.NativeFraction()*100 ||
			r.JNICalls != alone.Report.JNICalls ||
			r.NativeMethodCalls != alone.Report.NativeMethodCalls {
			t.Fatalf("campaign cell %+v != standalone measurement %+v", r, alone.Report)
		}
	}
}

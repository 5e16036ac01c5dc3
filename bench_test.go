// Package repro's benchmark harness regenerates every table of the
// paper's evaluation (Section V):
//
//	BenchmarkTable1/...   — Table I: execution time and profiling
//	                        overhead for SPA and IPA on all 8 benchmarks.
//	BenchmarkTable2/...   — Table II: IPA profiling statistics (% native
//	                        execution, JNI calls, native method calls).
//	BenchmarkAblation...  — the design-choice ablations (A1 JIT
//	                        suppression, A2 wrapper-cost compensation,
//	                        A3 static vs dynamic instrumentation).
//
// Figures 1-3 of the paper are code listings, reproduced as the
// implementations in internal/agents/spa, internal/instrument and
// internal/agents/ipa respectively.
//
// Simulated results are reported through b.ReportMetric: simMcycles is
// the workload's virtual execution time, overhead_pct the Table I
// overhead column, native_pct the Table II percentage. Wall-clock ns/op
// measures the simulator itself, not the paper's metric.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/agents/ipa"
	"repro/internal/agents/sampler"
	"repro/internal/agents/spa"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/instrument"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// benchScale divides benchmark sizes for the bench harness. 1 is the
// calibrated full size; raise it for quicker sweeps.
const benchScale = 1

func mustRun(b *testing.B, spec workloads.Spec, agent core.Agent, opts vm.Options) *core.RunResult {
	b.Helper()
	prog, err := workloads.Build(spec)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Run(prog, agent, opts)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func agentFor(kind harness.AgentKind) core.Agent {
	switch kind {
	case harness.AgentSPA:
		return spa.New()
	case harness.AgentIPA:
		return ipa.New()
	default:
		return nil
	}
}

// BenchmarkTable1 regenerates Table I: per benchmark and agent
// configuration, the simulated execution time and the overhead relative
// to the uninstrumented run.
func BenchmarkTable1(b *testing.B) {
	baselines := make(map[string]float64)
	for _, bench := range workloads.Suite() {
		spec := bench.Spec.Scale(benchScale)
		res := mustRun(b, spec, nil, vm.DefaultOptions())
		baselines[spec.Name] = float64(res.TotalCycles)
	}
	for _, bench := range workloads.Suite() {
		spec := bench.Spec.Scale(benchScale)
		for _, kind := range []harness.AgentKind{harness.AgentNone, harness.AgentSPA, harness.AgentIPA} {
			b.Run(spec.Name+"/"+kind.String(), func(b *testing.B) {
				var res *core.RunResult
				for i := 0; i < b.N; i++ {
					res = mustRun(b, spec, agentFor(kind), vm.DefaultOptions())
				}
				cycles := float64(res.TotalCycles)
				b.ReportMetric(cycles/1e6, "simMcycles")
				if kind != harness.AgentNone {
					b.ReportMetric((cycles/baselines[spec.Name]-1)*100, "overhead_pct")
				}
				if res.Ops > 0 {
					b.ReportMetric(res.Throughput(), "ops_per_Mcycle")
				}
			})
		}
	}
}

// BenchmarkTable2 regenerates Table II: IPA's profiling statistics per
// benchmark. It goes through harness.Measure so the JBB2005 row runs the
// paper's full warehouse sequence.
func BenchmarkTable2(b *testing.B) {
	cfg := harness.DefaultConfig()
	cfg.Runs = 1
	cfg.Scale = benchScale
	for _, bench := range workloads.Suite() {
		b.Run(bench.Spec.Name, func(b *testing.B) {
			var m *harness.Measurement
			for i := 0; i < b.N; i++ {
				var err error
				m, err = harness.Measure(bench, harness.AgentIPA, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(m.Report.NativeFraction()*100, "native_pct")
			b.ReportMetric(float64(m.Report.JNICalls), "jni_calls")
			b.ReportMetric(float64(m.Report.NativeMethodCalls), "native_calls")
			b.ReportMetric(bench.Expected.PaperNativePct, "paper_native_pct")
		})
	}
}

// BenchmarkAblationJITDisable is ablation A1: the same workload with and
// without MethodEntry/MethodExit events enabled, isolating the paper's
// key observation that the events suppress JIT compilation (Section III).
func BenchmarkAblationJITDisable(b *testing.B) {
	bench, err := workloads.ByName("compress")
	if err != nil {
		b.Fatal(err)
	}
	spec := bench.Spec.Scale(benchScale * 4)
	for _, events := range []bool{false, true} {
		name := "jit-on"
		if events {
			name = "method-events(jit-off)"
		}
		b.Run(name, func(b *testing.B) {
			var res *core.RunResult
			for i := 0; i < b.N; i++ {
				var agent core.Agent
				if events {
					agent = spa.New()
				}
				res = mustRun(b, spec, agent, vm.DefaultOptions())
			}
			b.ReportMetric(float64(res.TotalCycles)/1e6, "simMcycles")
			b.ReportMetric(float64(res.JITCompiled), "jit_compiled")
		})
	}
}

// BenchmarkAblationCompensation is ablation A2: IPA with and without the
// Section IV wrapper-cost timestamp compensation, on a transition-heavy
// workload; error_pp is the deviation of the measured native fraction
// from the unperturbed ground truth, in percentage points.
func BenchmarkAblationCompensation(b *testing.B) {
	spec := workloads.Spec{
		Name: "compensation", ClassName: "bench/Comp",
		OuterIters: 4000, CallsPerIter: 2, WorkPerCall: 10,
		NativeCallsPerIter: 4, NativeWork: 30,
		JNIEvery: 8, CallbackWork: 4,
	}
	truth := mustRun(b, spec, nil, vm.DefaultOptions()).Truth.NativeFraction()
	for _, comp := range []bool{true, false} {
		name := "compensated"
		if !comp {
			name = "uncompensated"
		}
		b.Run(name, func(b *testing.B) {
			var res *core.RunResult
			for i := 0; i < b.N; i++ {
				res = mustRun(b, spec, ipa.NewWithConfig(ipa.Config{Compensate: comp}), vm.DefaultOptions())
			}
			errPP := (res.Report.NativeFraction() - truth) * 100
			b.ReportMetric(errPP, "error_pp")
			b.ReportMetric(res.Report.NativeFraction()*100, "native_pct")
		})
	}
}

// BenchmarkAblationDynamicInstr is ablation A3: static (ahead-of-time)
// versus dynamic (ClassFileLoadHook) instrumentation, the deployment
// trade-off discussed in Section IV.
func BenchmarkAblationDynamicInstr(b *testing.B) {
	bench, err := workloads.ByName("jack")
	if err != nil {
		b.Fatal(err)
	}
	spec := bench.Spec.Scale(benchScale * 4)
	for _, dynamic := range []bool{false, true} {
		name := "static"
		if dynamic {
			name = "dynamic"
		}
		b.Run(name, func(b *testing.B) {
			var res *core.RunResult
			for i := 0; i < b.N; i++ {
				res = mustRun(b, spec,
					ipa.NewWithConfig(ipa.Config{Compensate: true, Dynamic: dynamic}),
					vm.DefaultOptions())
			}
			b.ReportMetric(float64(res.TotalCycles)/1e6, "simMcycles")
			b.ReportMetric(res.Report.NativeFraction()*100, "native_pct")
		})
	}
}

// BenchmarkInstrumenter measures the static instrumentation tool itself —
// the offline step the paper applies to application archives and rt.jar.
func BenchmarkInstrumenter(b *testing.B) {
	bench, err := workloads.ByName("javac")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := workloads.Build(bench.Spec)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := instrument.Classes(prog.Classes, instrument.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSamplerVsIPA quantifies the Section VI related-work contrast:
// a tprof-style PC sampler estimates the native fraction cheaply but
// produces no transition counts, while IPA counts transitions exactly.
// error_pp is deviation from the unperturbed ground truth.
func BenchmarkSamplerVsIPA(b *testing.B) {
	bench, err := workloads.ByName("javac")
	if err != nil {
		b.Fatal(err)
	}
	spec := bench.Spec.Scale(benchScale * 4)
	truth := mustRun(b, spec, nil, vm.DefaultOptions()).Truth.NativeFraction()
	base := float64(mustRun(b, spec, nil, vm.DefaultOptions()).TotalCycles)

	b.Run("sampler", func(b *testing.B) {
		opts := vm.DefaultOptions()
		opts.SampleInterval = 2000
		opts.SampleCost = 20
		var res *core.RunResult
		var agent *sampler.Agent
		for i := 0; i < b.N; i++ {
			agent = sampler.New()
			res = mustRun(b, spec, agent, opts)
		}
		bc, nat := agent.Samples()
		est := float64(nat) / float64(bc+nat)
		b.ReportMetric((est-truth)*100, "error_pp")
		b.ReportMetric((float64(res.TotalCycles)/base-1)*100, "overhead_pct")
		b.ReportMetric(float64(res.Report.JNICalls), "jni_calls") // always 0
	})
	b.Run("IPA", func(b *testing.B) {
		var res *core.RunResult
		for i := 0; i < b.N; i++ {
			res = mustRun(b, spec, ipa.New(), vm.DefaultOptions())
		}
		b.ReportMetric((res.Report.NativeFraction()-truth)*100, "error_pp")
		b.ReportMetric((float64(res.TotalCycles)/base-1)*100, "overhead_pct")
		b.ReportMetric(float64(res.Report.JNICalls), "jni_calls")
	})
}

// BenchmarkSweepTransitionFrequency regenerates the mechanism "figure"
// behind Table I's IPA column: overhead grows with the bytecode/native
// transition frequency, not with execution time (Section V-A).
func BenchmarkSweepTransitionFrequency(b *testing.B) {
	cfg := harness.DefaultConfig()
	cfg.Scale = 4
	for _, n := range []int{0, 1, 4, 16, 64} {
		b.Run(fmt.Sprintf("nativeCallsPerIter=%d", n), func(b *testing.B) {
			var pts []harness.SweepPoint
			for i := 0; i < b.N; i++ {
				var err error
				pts, err = harness.SweepTransitionFrequency([]int{n}, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			p := pts[0]
			b.ReportMetric(p.IPAOverheadPct, "overhead_pct")
			b.ReportMetric(p.TransitionsPerMcycle, "trans_per_Mcycle")
		})
	}
}

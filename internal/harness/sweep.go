package harness

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/workloads"
)

// SweepPoint is one measurement of the transition-frequency sweep.
type SweepPoint struct {
	// NativeCallsPerIter is the swept parameter.
	NativeCallsPerIter int
	// TransitionsPerMcycle is the resulting J2N transition frequency.
	TransitionsPerMcycle float64
	// IPAOverheadPct is IPA's overhead at this frequency.
	IPAOverheadPct float64
	// MeasuredNativePct is what IPA reports.
	MeasuredNativePct float64
	// TruthNativePct is the unperturbed ground truth.
	TruthNativePct float64
}

// SweepTransitionFrequency measures IPA overhead as a function of the
// workload's bytecode/native transition frequency — the mechanism behind
// Table I's IPA column: overhead is proportional to transitions, not to
// time ("Except for transitions between bytecode and native code, there
// is no overhead", Section V-A). The sweep holds per-iteration bytecode
// work constant and varies native calls per iteration.
func SweepTransitionFrequency(callsPerIter []int, cfg Config) ([]SweepPoint, error) {
	return SweepTransitionFrequencyContext(context.Background(), callsPerIter, cfg)
}

// SweepTransitionFrequencyContext is the sweep with cooperative
// cancellation; sweep points are independent cells and run on the worker
// pool like the table campaigns.
func SweepTransitionFrequencyContext(ctx context.Context, callsPerIter []int, cfg Config) ([]SweepPoint, error) {
	cfg = cfg.normalized()
	// The sweep consumes runner.Values, which is only valid for an
	// all-success batch; like the paper grids it fails fast.
	cfg.FailFast = true
	results, err := runner.Map(ctx, cfg.RunnerOptions(), callsPerIter,
		func(n int) string { return fmt.Sprintf("sweep-%d", n) },
		func(ctx context.Context, n int) (SweepPoint, error) {
			return sweepPoint(ctx, n, cfg)
		})
	if err != nil {
		return nil, err
	}
	return runner.Values(results), nil
}

// sweepPoint measures one point of the sweep: an uninstrumented run for
// the baseline and ground truth, and an IPA run for overhead and the
// measured native fraction.
func sweepPoint(ctx context.Context, n int, cfg Config) (SweepPoint, error) {
	spec := workloads.Spec{
		Name: fmt.Sprintf("sweep-%d", n), ClassName: "sweep/W",
		OuterIters: 4000 / cfg.Scale, CallsPerIter: 4, WorkPerCall: 25,
		NativeCallsPerIter: n, NativeWork: 20,
	}
	if spec.OuterIters < 1 {
		spec.OuterIters = 1
	}
	plainProg, err := workloads.Build(spec)
	if err != nil {
		return SweepPoint{}, err
	}
	plain, err := core.RunContext(ctx, plainProg, nil, cfg.Opts)
	if err != nil {
		return SweepPoint{}, err
	}
	profProg, err := workloads.Build(spec)
	if err != nil {
		return SweepPoint{}, err
	}
	prof, err := core.RunContext(ctx, profProg, newAgent(AgentIPA), cfg.Opts)
	if err != nil {
		return SweepPoint{}, err
	}
	pt := SweepPoint{
		NativeCallsPerIter: n,
		IPAOverheadPct:     (float64(prof.TotalCycles)/float64(plain.TotalCycles) - 1) * 100,
		MeasuredNativePct:  prof.Report.NativeFraction() * 100,
		TruthNativePct:     plain.Truth.NativeFraction() * 100,
	}
	if plain.TotalCycles > 0 {
		pt.TransitionsPerMcycle = float64(plain.Truth.NativeMethodCalls) /
			(float64(plain.TotalCycles) / 1e6)
	}
	return pt, nil
}

// RenderSweep formats the sweep as a small table with an ASCII bar per
// row, the reproduction's stand-in for an overhead-vs-frequency figure.
func RenderSweep(points []SweepPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "IPA overhead vs transition frequency\n")
	fmt.Fprintf(&b, "%6s %16s %12s %12s %10s\n",
		"nc/it", "trans/Mcycle", "overhead", "measured%", "truth%")
	maxOvh := 0.0
	for _, p := range points {
		if p.IPAOverheadPct > maxOvh {
			maxOvh = p.IPAOverheadPct
		}
	}
	for _, p := range points {
		bar := ""
		if maxOvh > 0 {
			bar = strings.Repeat("#", int(p.IPAOverheadPct/maxOvh*30+0.5))
		}
		fmt.Fprintf(&b, "%6d %16.0f %11.2f%% %11.2f%% %9.2f%%  %s\n",
			p.NativeCallsPerIter, p.TransitionsPerMcycle,
			p.IPAOverheadPct, p.MeasuredNativePct, p.TruthNativePct, bar)
	}
	return b.String()
}

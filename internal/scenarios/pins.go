package scenarios

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// Pins are a scenario's exact expected observables, recorded from one
// canonical run (interpreter engine, default options, the scenario's
// own heap spec) at a declared scale. Unlike Checks — tolerance bounds
// a human writes — pins are machine-recorded byte-exact values: the
// trace compiler and the adversarial search stamp them onto every
// scenario they emit, turning a found workload into a regression test
// that any later engine change must still reproduce bit for bit.
type Pins struct {
	// Scale is the workload scale divisor the pins were recorded at.
	Scale int `json:"scale"`
	// MainResult is the program's main return value.
	MainResult int64 `json:"mainResult"`
	// TotalCycles and Instructions are the engine's execution metrics.
	TotalCycles  uint64 `json:"totalCycles"`
	Instructions uint64 `json:"instructions"`
	// Threads is the number of threads the run created.
	Threads int `json:"threads"`
	// The ground-truth attribution (core.GroundTruth), field by field.
	BytecodeCycles    uint64 `json:"bytecodeCycles"`
	NativeCycles      uint64 `json:"nativeCycles"`
	OverheadCycles    uint64 `json:"overheadCycles,omitempty"`
	GCCycles          uint64 `json:"gcCycles,omitempty"`
	NativeMethodCalls uint64 `json:"nativeMethodCalls,omitempty"`
	JNICalls          uint64 `json:"jniCalls,omitempty"`
}

// Validate checks the pins for registrability.
func (p *Pins) Validate() error {
	if p.Scale < 1 {
		return fmt.Errorf("scenarios: pins need scale >= 1 (got %d)", p.Scale)
	}
	return nil
}

// Truth returns the pinned ground truth as the core type.
func (p *Pins) Truth() core.GroundTruth {
	return core.GroundTruth{
		BytecodeCycles:    p.BytecodeCycles,
		NativeCycles:      p.NativeCycles,
		OverheadCycles:    p.OverheadCycles,
		GCCycles:          p.GCCycles,
		NativeMethodCalls: p.NativeMethodCalls,
		JNICalls:          p.JNICalls,
	}
}

// Check compares a run result against the pinned values, reporting
// every mismatched field.
func (p *Pins) Check(res *core.RunResult) error {
	var bad []string
	mism := func(name string, got, want any) {
		if got != want {
			bad = append(bad, fmt.Sprintf("%s: got %v, pinned %v", name, got, want))
		}
	}
	mism("mainResult", res.MainResult, p.MainResult)
	mism("totalCycles", res.TotalCycles, p.TotalCycles)
	mism("instructions", res.Instructions, p.Instructions)
	mism("threads", res.Threads, p.Threads)
	mism("groundTruth", res.Truth, p.Truth())
	if len(bad) > 0 {
		return fmt.Errorf("pinned observables diverged:\n  %s", strings.Join(bad, "\n  "))
	}
	return nil
}

// CanonicalOptions are the VM options pins are recorded and verified
// under: the interpreter engine with default options on the step-by-step
// instrumented loop — the reference semantics every other engine's
// byte-identity contract points back to. Every other frame runs the
// jit's lowering, so only the instrumented loop is independent of it.
func CanonicalOptions() vm.Options {
	o := vm.DefaultOptions()
	o.ForceInstrumentedLoop = true
	return o
}

// CanonicalRun executes the scenario's workload once under the
// canonical options (applying the scenario's heap spec) at the given
// scale — the run pins are recorded from and replayed against.
func (s Scenario) CanonicalRun(scale int) (*core.RunResult, error) {
	prog, err := workloads.BuildWorkload(s.Workload.Scale(scale))
	if err != nil {
		return nil, err
	}
	opts := CanonicalOptions()
	s.ApplyHeap(&opts)
	return core.Run(prog, nil, opts)
}

// RecordPins runs the scenario canonically at the given scale and
// stamps the observed values as its pins.
func (s *Scenario) RecordPins(scale int) error {
	if scale < 1 {
		scale = 1
	}
	res, err := s.CanonicalRun(scale)
	if err != nil {
		return fmt.Errorf("scenarios: recording pins for %s: %w", s.Name(), err)
	}
	s.Pins = &Pins{
		Scale:             scale,
		MainResult:        res.MainResult,
		TotalCycles:       res.TotalCycles,
		Instructions:      res.Instructions,
		Threads:           res.Threads,
		BytecodeCycles:    res.Truth.BytecodeCycles,
		NativeCycles:      res.Truth.NativeCycles,
		OverheadCycles:    res.Truth.OverheadCycles,
		GCCycles:          res.Truth.GCCycles,
		NativeMethodCalls: res.Truth.NativeMethodCalls,
		JNICalls:          res.Truth.JNICalls,
	}
	return nil
}

// VerifyPins re-runs the scenario canonically and checks the result
// against its pins; a scenario without pins passes vacuously.
func (s Scenario) VerifyPins() error {
	if s.Pins == nil {
		return nil
	}
	res, err := s.CanonicalRun(s.Pins.Scale)
	if err != nil {
		return fmt.Errorf("scenarios: %s: %w", s.Name(), err)
	}
	if err := s.Pins.Check(res); err != nil {
		return fmt.Errorf("scenarios: %s: %w", s.Name(), err)
	}
	return nil
}

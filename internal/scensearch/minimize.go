package scensearch

import (
	"fmt"

	"repro/internal/difftest"
	"repro/internal/scenarios"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// minEvalCap bounds the minimizer's oracle evaluations per finding so a
// pathological candidate cannot eat the whole budget shrinking.
const minEvalCap = 400

// stillDiverges re-judges the workload under one oracle.
func (s *searcher) stillDiverges(o oracle, w workloads.Workload) (*difftest.Verdict, bool) {
	if w.Validate() != nil {
		return nil, false
	}
	v, err := o.evaluate(w)
	s.evals++
	s.cfg.Tel.Count(telFamily, telemetry.MetricSearchEvals, 1)
	if err != nil {
		return nil, false
	}
	return v, v.Diverged()
}

// minimize greedily shrinks a diverging workload: drop phases, collapse
// threads, halve the outer loop and the phase parameters — keeping each
// reduction only if the divergence survives — then wraps the result as
// a pinned "found" scenario. Greedy passes repeat until a whole pass
// changes nothing or the evaluation cap is hit.
func (s *searcher) minimize(w workloads.Workload, oracleName string) (*Finding, error) {
	var o oracle
	for _, cand := range s.oracles {
		if cand.name == oracleName {
			o = cand
		}
	}
	cur := copyWorkload(w)
	verdict, ok := s.stillDiverges(o, cur)
	if !ok {
		return nil, fmt.Errorf("scensearch: divergence of %s did not reproduce under minimization", w.Name)
	}
	start := s.evals
	budget := func() bool { return s.evals-start < minEvalCap }
	try := func(next workloads.Workload) bool {
		if !budget() {
			return false
		}
		if v, ok := s.stillDiverges(o, next); ok {
			cur, verdict = next, v
			return true
		}
		return false
	}
	for changed := true; changed && budget(); {
		changed = false
		// Drop phases, last first (later phases often only pad).
		for i := len(cur.Phases) - 1; i >= 0 && len(cur.Phases) > 1; i-- {
			next := copyWorkload(cur)
			next.Phases = append(next.Phases[:i], next.Phases[i+1:]...)
			if try(next) {
				changed = true
			}
		}
		// Collapse threads.
		if cur.Threads > 0 {
			next := copyWorkload(cur)
			next.Threads = 0
			if try(next) {
				changed = true
			}
		}
		// Halve the outer loop.
		for cur.OuterIters > minOuterIters {
			next := copyWorkload(cur)
			next.OuterIters = clampSearch(next.OuterIters/2, minOuterIters, maxOuterIters)
			if !try(next) {
				break
			}
			changed = true
		}
		// Halve each phase parameter.
		for i := range cur.Phases {
			for _, shrink := range []func(*workloads.Phase) bool{
				func(p *workloads.Phase) bool {
					if p.Calls <= 1 {
						return false
					}
					p.Calls /= 2
					return true
				},
				func(p *workloads.Phase) bool {
					if p.Work <= 1 {
						return false
					}
					p.Work /= 2
					return true
				},
				func(p *workloads.Phase) bool {
					if p.Depth <= 1 {
						return false
					}
					p.Depth /= 2
					return true
				},
				func(p *workloads.Phase) bool {
					if p.Size <= 8 {
						return false
					}
					p.Size /= 2
					return true
				},
				func(p *workloads.Phase) bool {
					if p.JNIEvery == 0 && p.CallbacksPerNative == 0 && p.CallbackWork == 0 {
						return false
					}
					p.JNIEvery, p.CallbacksPerNative, p.CallbackWork = 0, 0, 0
					return true
				},
			} {
				for budget() {
					next := copyWorkload(cur)
					if !shrink(&next.Phases[i]) {
						break
					}
					if !try(next) {
						break
					}
					changed = true
				}
			}
		}
	}
	// Wrap as a registrable regression scenario. The canonical
	// (instrumented-loop) run defines the pins: it is the baseline even
	// while a lowering defect is live, so the pins record the *correct*
	// observables and the scenario doubles as an engine regression test.
	sc := scenarios.Scenario{Family: "found", Workload: cur}
	sc.Workload.Name = fmt.Sprintf("found-%s-seed%d", oracleName, s.cfg.Seed)
	sc.Workload.ClassName = "found/Scenario"
	if err := sc.RecordPins(1); err != nil {
		return nil, err
	}
	return &Finding{Scenario: sc, Oracle: oracleName, Verdict: verdict}, nil
}

// Replay re-checks one found scenario: the canonical run must reproduce
// its pins, and every oracle leg must agree again — the corpus-replay
// contract CI enforces over examples/scenarios/found/.
func Replay(sc scenarios.Scenario) (*difftest.Verdict, error) {
	if err := sc.VerifyPins(); err != nil {
		return nil, err
	}
	for _, o := range oracles {
		v, err := o.evaluate(sc.Workload)
		if err != nil {
			return nil, err
		}
		if v.Diverged() {
			return v, fmt.Errorf("scensearch: %s diverges under oracle %s:\n%s", sc.Name(), o.name, v)
		}
	}
	return nil, nil
}

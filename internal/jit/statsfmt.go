package jit

import (
	"fmt"
	"strings"
)

// RenderTier2 formats the tier-2 portion of a stats snapshot — the
// aggregate inlining counters, the op-free instructions interpreted
// frames ran in batches, and the per-method rows — for the CLIs'
// -tierstats views. Every line is prefixed with
// indent. Methods with no tier-2 activity are absent from PerMethod, so
// the table shows exactly where the tier-2 wins (or their absence) come
// from; an empty string means the run had no tier-2 activity at all.
func (s *Stats) RenderTier2(indent string) string {
	var out strings.Builder
	if s.InlinedSites+s.InlinedCalls+s.SuperinstrPairs > 0 {
		fmt.Fprintf(&out, "%stier-2: %d inline sites, %d inlined calls, %d op-free instructions in interpreted batches\n",
			indent, s.InlinedSites, s.InlinedCalls, s.SuperinstrPairs)
	}
	if len(s.PerMethod) > 0 {
		fmt.Fprintf(&out, "%stier-2 per method (sites / inlined calls / op-free interpreted instrs / lowering op-free share):\n", indent)
		for _, m := range s.PerMethod {
			fmt.Fprintf(&out, "%s  %-44s %3d sites %10d inlined %12d op-free  share %s\n",
				indent, m.Method, m.InlineSites, m.InlinedCalls, m.SuperPairs, m.FusionCoverage())
		}
	}
	return out.String()
}

// FusionCoverage renders the lowering's static op-free share: the
// fraction of the instructions in the method's pure chunks that the
// lowering folded into other instructions' ops, or "-" for methods with
// no pure chunk.
func (m *MethodStats) FusionCoverage() string {
	if m.StraightInstrs <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", float64(m.FusedPairs)/float64(m.StraightInstrs)*100)
}

package jit

import (
	"fmt"
	"strings"
)

// Stats is the tier's observable bookkeeping, assembled by the VM for the
// CLIs' tier-stats dumps and for tests.
//
// A harness Measurement carries a Stats in the result cache's canonical
// payload, so the JSON form is kept to what a cached cell's readers use:
// every scalar is omitempty (an interp cell's Stats encodes as {}), and
// SuperinstrPairs and PerMethod, which only the -tierstats views render
// straight from the VM, are never encoded.
type Stats struct {
	// Engine is the tier the VM ran with.
	Engine Engine `json:",omitempty"`
	// MethodsCompiled counts methods promoted over the VM's lifetime
	// (a method promoted again after method events were switched off
	// counts again).
	MethodsCompiled uint64 `json:",omitempty"`
	// CompileFailures counts methods the lowering rejected.
	CompileFailures uint64 `json:",omitempty"`
	// CompiledFrames counts method activations of promoted methods;
	// DeoptFrames the promoted activations that left the block executor
	// mid-frame for the instrumented interpreter; FallbackChunks the
	// promoted chunk executions that stepped original bytecode at a
	// yield boundary. Interpreted frames, which run the same lowering on
	// the same executor, count in none of them.
	CompiledFrames uint64 `json:",omitempty"`
	DeoptFrames    uint64 `json:",omitempty"`
	FallbackChunks uint64 `json:",omitempty"`
	// SuperinstrPairs counts the instructions interpreted frames executed
	// in batches without an op of their own (folded into another
	// instruction's op by the lowering). Promoted frames do not count.
	// InlinedCalls and OSREntries are always 0: the VM has neither
	// call-site inlining nor on-stack replacement, and the fields stay
	// only because the cpubench module still reports them as
	// jit.inlined_calls and jit.osr_entries.
	InlinedCalls    uint64 `json:",omitempty"`
	OSREntries      uint64 `json:",omitempty"`
	SuperinstrPairs uint64 `json:"-"`
	// PerMethod is the per-method tier-2 detail for methods whose
	// interpreted frames ran op-free instructions, sorted by full name.
	PerMethod []MethodStats `json:"-"`
}

// MethodStats is one method's tier-2 bookkeeping for the -tierstats
// surfaces: how much of the method's straight-line code the lowering
// folded away, statically and in its interpreted frames.
type MethodStats struct {
	// Method is the full "Class.name(Desc)" name.
	Method string
	// SuperPairs counts the instructions the method's interpreted frames
	// executed in batches without an op of their own.
	SuperPairs uint64
	// FusedPairs and StraightInstrs describe static coverage: of the
	// StraightInstrs instructions in the lowering's pure chunks,
	// FusedPairs lowered to no op of their own — the share the jprof
	// tier-stats view reports.
	FusedPairs     int
	StraightInstrs int
}

// RenderTier2 formats the tier-2 portion of a stats snapshot — the
// op-free instructions interpreted frames ran in batches, and the
// per-method rows — for the CLIs' -tierstats views. Every line is
// prefixed with indent. Methods with no tier-2 activity are absent from
// PerMethod; an empty string means the run had no tier-2 activity at
// all.
func (s *Stats) RenderTier2(indent string) string {
	var out strings.Builder
	if s.SuperinstrPairs > 0 {
		fmt.Fprintf(&out, "%stier-2: %d op-free instructions in interpreted batches\n",
			indent, s.SuperinstrPairs)
	}
	if len(s.PerMethod) > 0 {
		fmt.Fprintf(&out, "%stier-2 per method (op-free interpreted instrs / lowering op-free share):\n", indent)
		for _, m := range s.PerMethod {
			fmt.Fprintf(&out, "%s  %-44s %12d op-free  share %s\n",
				indent, m.Method, m.SuperPairs, m.FusionCoverage())
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

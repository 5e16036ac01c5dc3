// Package jit is the template compilation tier of the simulated JVM's
// execution engine. It lowers verified bytecode methods into pre-resolved
// trace units — one fused three-address sequence per basic block. The
// lowering is the VM's one code form for uninstrumented frames:
// internal/vm's block executor runs it in every interpreted frame from
// load time on, and once a method's hotness counter crosses the promotion
// threshold the same executor runs the promoted unit (the lowering plus
// inline sites) from the method's next entry on.
//
// The package owns three things:
//
//   - the lowering pass (compile.go) and promotion with call-site
//     inlining (inline.go): bytecode → per-block IR with
//     producer/consumer fusion over the verifier's static stack depths;
//   - the compiled-method cache (cache.go): units stamped with the VM's
//     relink epoch, so any class load invalidates every unit;
//   - the engine taxonomy (this file): the interp/jit/auto -engine knob
//     every binary exposes, with shared parsing and flag registration.
//
// The tier is a host-level accelerator only. It never changes simulated
// semantics: cycle accounting, ground truth, yield boundaries, reports
// and results are byte-identical across engines, which the differential
// suites in internal/vm and internal/harness pin down. Whenever an
// observer needs per-instruction semantics (a tracer, an active sampling
// hook, Options.ForceInstrumentedLoop), the VM deoptimizes back to the
// instrumented interpreter loop instead of running compiled code.
package jit

import (
	"flag"
	"fmt"
	"strings"
)

// Engine selects the execution tier of a VM.
type Engine uint8

const (
	// EngineInterp never promotes: every frame runs its method's
	// lowering, or the instrumented loop — the default.
	EngineInterp Engine = iota
	// EngineJIT promotes hot bytecode methods to compiled trace units at
	// the configured threshold. Frames still deoptimize to the
	// interpreter whenever per-instruction semantics are required.
	EngineJIT
	// EngineAuto is EngineJIT except that promotion is skipped while the
	// VM has a per-instruction observer installed (tracer, active
	// sampling hook, or a forced instrumented loop) — compiling would be
	// pure waste since every frame would deoptimize anyway.
	EngineAuto
)

// String names the engine as the -engine flag spells it.
func (e Engine) String() string {
	switch e {
	case EngineJIT:
		return "jit"
	case EngineAuto:
		return "auto"
	default:
		return "interp"
	}
}

// Engines lists the accepted -engine values in display order.
func Engines() []string { return []string{"interp", "jit", "auto"} }

// ParseEngine maps a -engine flag value to its Engine. Unknown values are
// a hard error naming the allowed set, matching the agent registry's
// flag-validation convention: every binary rejects a bad engine the same
// way instead of silently falling back.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "interp":
		return EngineInterp, nil
	case "jit":
		return EngineJIT, nil
	case "auto":
		return EngineAuto, nil
	}
	return EngineInterp, fmt.Errorf("jit: unknown engine %q (allowed: %s)",
		s, strings.Join(Engines(), ", "))
}

// AddEngineFlag registers the shared -engine flag on fs with the
// project-wide help text and default, so every binary exposes the same
// tier-selection knob. Pass the value to ParseEngine after fs.Parse; the
// returned error is the per-command rejection path.
func AddEngineFlag(fs *flag.FlagSet) *string {
	return fs.String("engine", "interp",
		"execution engine: "+strings.Join(Engines(), ", "))
}

package vm

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/bytecode"
)

// Tracer emits a line-oriented execution trace: method entries and exits
// with thread and depth context, and optionally every interpreted
// instruction. It is a debugging aid for workload authors and for
// diagnosing agent behaviour; tracing has no effect on virtual time.
//
// Install with VM.SetTracer before Run. Output is serialized internally,
// so multi-threaded runs interleave whole lines.
type Tracer struct {
	mu sync.Mutex
	w  io.Writer
	// Instructions enables per-instruction tracing (very verbose).
	Instructions bool
}

// NewTracer returns a tracer writing to w.
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{w: w}
}

func (tr *Tracer) printf(format string, args ...any) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	fmt.Fprintf(tr.w, format, args...)
}

func (tr *Tracer) enter(t *Thread, m *Method) {
	kind := "java"
	if m.IsNative() {
		kind = "native"
	} else if m.IsCompiled() {
		kind = "jit"
	}
	tr.printf("[t%d d%d] > %s (%s) @%d\n", t.id, t.depth, m.FullName(), kind, t.Cycles())
}

func (tr *Tracer) exit(t *Thread, m *Method, err error) {
	status := "return"
	if err != nil {
		status = "throw"
	}
	tr.printf("[t%d d%d] < %s (%s) @%d\n", t.id, t.depth, m.FullName(), status, t.Cycles())
}

func (tr *Tracer) instruction(t *Thread, m *Method, in bytecode.Instruction) {
	if !tr.Instructions {
		return
	}
	tr.printf("[t%d] %s+%d: %s\n", t.id, m.Def.Name, in.Offset, in.Op)
}

// SetTracer installs (or clears, with nil) the VM's execution tracer.
// Install it before Run to trace the whole execution. Installing it
// mid-run (from native code) is also supported: frames entered from then
// on select the instrumented loop, and a compiled-tier frame that is
// on-stack deoptimizes to the instrumented interpreter at its next call
// boundary. Note that the trace *text* for already-running frames is a
// best-effort diagnostic, not part of the cross-engine byte-identity
// contract: a deoptimized compiled frame traces all of its remaining
// instructions, while an interpreted frame mid-flight on the block
// executor keeps its uninstrumented dispatch and traces nothing more. Simulated
// observables (cycles, counts, ground truth, results) are unaffected
// either way — tracing has no effect on virtual time.
func (v *VM) SetTracer(tr *Tracer) {
	v.tracer = tr
}

// Tracer returns the installed tracer, or nil.
func (v *VM) Tracer() *Tracer {
	return v.tracer
}

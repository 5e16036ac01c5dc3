package jit

import (
	"fmt"
	"sync/atomic"
)

// This file is the test-only defect hook behind the adversarial scenario
// search's acceptance criterion: a named, guarded, deliberately wrong
// compilation variant that the search (internal/scensearch) must find by
// differential testing and minimize. The hook is off unless explicitly
// armed — production paths never arm it — and lives behind an explicit
// name so a stray environment variable cannot half-enable it.

// DefectEnvVar is the environment variable the binaries read to arm a
// named test defect (see SetTestDefect).
const DefectEnvVar = "JVMSIM_DEFECT"

// TestDefectMulAdd names the off-by-one in the fused multiply-add op:
// the lowering's peephole emits Imm2+1. Every executor of the lowering
// inherits it — compiled and interpreted frames alike — so any
// workload whose kernel hits the (x*a)+b recurrence diverges
// from the step-by-step instrumented loop, the one leg independent of
// the lowering.
const TestDefectMulAdd = "jit-muladd-off-by-one"

// activeDefect holds the armed defect: 0 none, 1 TestDefectMulAdd.
var activeDefect atomic.Int32

// SetTestDefect arms the named defect ("" disarms). Unknown names are an
// error so a typo cannot silently test the clean tree.
func SetTestDefect(name string) error {
	switch name {
	case "":
		activeDefect.Store(0)
	case TestDefectMulAdd:
		activeDefect.Store(1)
	default:
		return fmt.Errorf("jit: unknown test defect %q (known: %s)", name, TestDefectMulAdd)
	}
	return nil
}

// defectMulAdd reports whether the fused multiply-add defect is armed.
func defectMulAdd() bool { return activeDefect.Load() == 1 }

// ArmedTestDefect returns the name of the armed defect, "" when none. A
// lowering depends on it, so whatever reuses a lowering keys on it too.
func ArmedTestDefect() string {
	if defectMulAdd() {
		return TestDefectMulAdd
	}
	return ""
}

package vm

import (
	"io"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/classfile"
	"repro/internal/jit"
)

// buildDriver assembles p/T.drive(x): a 30-iteration loop that calls
// kernel(x) each time and invokes the native hook() exactly once, at
// iteration 15 — the shape every on-stack deopt test needs: a compiled
// caller frame on the stack when the hook perturbs the VM.
func buildDriver(t *testing.T) *classfile.Class {
	t.Helper()
	k := bytecode.NewAssembler()
	k.Load(0)
	k.Const(31)
	k.Mul()
	k.Const(7)
	k.Add()
	k.IReturn()
	kernel, err := k.FinishMethod("kernel", "(J)J", classfile.AccPublic|classfile.AccStatic, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := bytecode.NewAssembler()
	// locals: 0 = x, 1 = i
	a.Const(30)
	a.Store(1)
	top := a.NewLabel()
	end := a.NewLabel()
	skip := a.NewLabel()
	a.Bind(top)
	a.Load(1)
	a.Ifle(end)
	a.Load(0)
	a.InvokeStatic("p/T", "kernel", "(J)J")
	a.Store(0)
	a.Load(1)
	a.Const(15)
	a.IfCmpne(skip)
	a.InvokeStatic("p/T", "hook", "()V")
	a.Bind(skip)
	a.Inc(1, -1)
	a.Goto(top)
	a.Bind(end)
	a.Load(0)
	a.IReturn()
	drive, err := a.FinishMethod("drive", "(J)J", classfile.AccPublic|classfile.AccStatic, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	hook := &classfile.Method{
		Name: "hook", Desc: "()V",
		Flags: classfile.AccPublic | classfile.AccStatic | classfile.AccNative,
	}
	// main(x): six drive calls, so drive itself is promoted (threshold 3)
	// and a COMPILED drive frame is on-stack when the hook perturbs the
	// VM on a later activation.
	mn := bytecode.NewAssembler()
	mn.Const(6)
	mn.Store(1)
	mtop := mn.NewLabel()
	mend := mn.NewLabel()
	mn.Bind(mtop)
	mn.Load(1)
	mn.Ifle(mend)
	mn.Load(0)
	mn.InvokeStatic("p/T", "drive", "(J)J")
	mn.Store(0)
	mn.Inc(1, -1)
	mn.Goto(mtop)
	mn.Bind(mend)
	mn.Load(0)
	mn.IReturn()
	mainM, err := mn.FinishMethod("main", "(J)J", classfile.AccPublic|classfile.AccStatic, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	cls := &classfile.Class{Name: "p/T", Methods: []*classfile.Method{mainM, drive, kernel, hook}}
	if err := cls.Validate(); err != nil {
		t.Fatal(err)
	}
	return cls
}

// runOutcome captures every engine-visible observable of one VM.Run.
type runOutcome struct {
	result int64
	errTxt string
	cycles uint64
	instrs uint64
	truth  [3]uint64
	native uint64
}

// runWithHook executes p/T.drive under the given engine with the hook
// native bound to fn, and returns the observables plus the VM.
func runWithHook(t *testing.T, engine jit.Engine, force bool, fn func(v *VM)) (runOutcome, *VM) {
	t.Helper()
	opts := DefaultOptions()
	opts.JITThreshold = 3
	opts.CompileThreshold = 3
	opts.Tier = engine
	opts.ForceInstrumentedLoop = force
	v := New(opts)
	if err := v.LoadClasses([]*classfile.Class{buildDriver(t).Clone()}); err != nil {
		t.Fatal(err)
	}
	// The hook fires once per drive activation; act only on the fifth,
	// when drive is well past the promotion threshold and its compiled
	// frame is the one on-stack.
	hookCalls := 0
	if err := v.RegisterNative("p/T", "hook", "()V", func(env Env, args []int64) (int64, error) {
		hookCalls++
		if fn != nil && hookCalls == 5 {
			fn(env.VM())
		}
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
	res, err := v.Run("p/T", "main", "(J)J", 5)
	var o runOutcome
	o.result = res
	if err != nil {
		o.errTxt = err.Error()
	}
	o.cycles = v.TotalCycles()
	o.instrs = v.InstructionsExecuted()
	for _, th := range v.Threads() {
		bc, nat, ovh := th.GroundTruth()
		o.truth[0] += bc
		o.truth[1] += nat
		o.truth[2] += ovh
	}
	o.native = v.NativeCallCount()
	return o, v
}

// assertEnginesAgree runs the hook program under the instrumented loop,
// the interp engine's block executor and the jit tier and fails on any
// observable divergence.
// It returns the jit VM for tier-state assertions.
func assertEnginesAgree(t *testing.T, fn func(v *VM)) *VM {
	t.Helper()
	inst, _ := runWithHook(t, jit.EngineInterp, true, fn)
	fast, _ := runWithHook(t, jit.EngineInterp, false, fn)
	jitted, jv := runWithHook(t, jit.EngineJIT, false, fn)
	if fast != inst {
		t.Fatalf("fast %+v != instrumented %+v", fast, inst)
	}
	if jitted != inst {
		t.Fatalf("jit %+v != instrumented %+v", jitted, inst)
	}
	return jv
}

// TestJITDeoptOnStackTracer: native code installs a tracer while a
// compiled frame (drive) is on-stack. The frame must leave the template
// tier at the call boundary and finish on the instrumented interpreter,
// with observables identical to both interpreter engines.
func TestJITDeoptOnStackTracer(t *testing.T) {
	jv := assertEnginesAgree(t, func(v *VM) {
		v.SetTracer(NewTracer(io.Discard))
	})
	st := jv.TierStats()
	if st.CompiledFrames == 0 {
		t.Fatalf("no compiled frames before the deopt: %+v", st)
	}
	if st.DeoptFrames == 0 {
		t.Fatalf("tracer install did not deopt the on-stack compiled frame: %+v", st)
	}
}

// TestJITDeoptOnStackMethodEvents: enabling method events mid-run (what
// SPA does at OnLoad, here forced mid-execution) de-optimizes the world —
// the simulated cost model switches AND the compiled frame on-stack must
// hand off, byte-identically to the interpreter's handling.
func TestJITDeoptOnStackMethodEvents(t *testing.T) {
	jv := assertEnginesAgree(t, func(v *VM) {
		v.EnableMethodEvents(true)
	})
	st := jv.TierStats()
	if st.DeoptFrames == 0 {
		t.Fatalf("method events did not deopt the on-stack compiled frame: %+v", st)
	}
}

// TestJITRelinkInvalidatesCache: a LoadClass while promoted frames run.
// Every frame runs its method's link-independent lowering, so there is
// no compiled-unit cache left to invalidate: the relink changes nothing
// a frame runs, the on-stack promoted frame carries on without a deopt,
// and nothing diverges from the interpreter.
func TestJITRelinkInvalidatesCache(t *testing.T) {
	extra := &classfile.Class{Name: "p/Extra", Methods: []*classfile.Method{{
		Name: "noop", Desc: "()V",
		Flags: classfile.AccPublic | classfile.AccStatic | classfile.AccNative,
	}}}
	jv := assertEnginesAgree(t, func(v *VM) {
		if _, err := v.LoadClass(extra.Clone()); err != nil {
			t.Error(err)
		}
	})
	st := jv.TierStats()
	if st.CompiledFrames == 0 {
		t.Fatalf("no promoted frames around the relink: %+v", st)
	}
	if st.DeoptFrames != 0 {
		t.Fatalf("a relink deopted a promoted frame: %+v", st)
	}
}

// TestJITAutoSkipsObservedRuns: EngineAuto never compiles while a
// per-instruction observer is installed — the whole run stays on the
// instrumented loop with zero tier activity.
func TestJITAutoSkipsObservedRuns(t *testing.T) {
	opts := DefaultOptions()
	opts.CompileThreshold = 1
	opts.Tier = jit.EngineAuto
	opts.ForceInstrumentedLoop = true
	v := New(opts)
	if err := v.LoadClasses([]*classfile.Class{buildDriver(t).Clone()}); err != nil {
		t.Fatal(err)
	}
	if err := v.RegisterNative("p/T", "hook", "()V", func(env Env, args []int64) (int64, error) {
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Run("p/T", "drive", "(J)J", 5); err != nil {
		t.Fatal(err)
	}
	st := v.TierStats()
	if st.MethodsCompiled != 0 || st.CompiledFrames != 0 {
		t.Fatalf("auto engine compiled under ForceInstrumentedLoop: %+v", st)
	}
}

// TestJITCompileFailurePinsInterpreter: a method the lowering rejects
// stays interpreted forever — promotion is attempted once, the failure
// is recorded, and execution is unaffected.
func TestJITCompileFailurePinsInterpreter(t *testing.T) {
	v := New(DefaultOptions())
	if v.TierStats().CompileFailures != 0 {
		t.Fatal("fresh VM reports compile failures")
	}
	// Directly exercise the failure path at the jit layer: methods with
	// no reachable code cannot be lowered.
	if _, err := jit.Lower(&classfile.Method{Name: "x", Desc: "()V"}, nil); err == nil {
		t.Fatal("empty method compiled")
	}
}

// FuzzJITDifferential cross-checks the three engines on generated
// programs: the straight-line arithmetic generator and the branchy loop
// generator, both driven by the fuzzer's seed. Any divergence in result,
// cycles, ground truth or instruction count fails.
func FuzzJITDifferential(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42, 1234, -99, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if m, _, err := genProgram(seed); err == nil && bytecode.Verify(m) == nil {
			cls := &classfile.Class{Name: "p/Gen", Methods: []*classfile.Method{m}}
			runEngines(t, cls, "gen", 6)
		}
		// Loops with trapping array ops and div/rem, under the default
		// and the hostile quantum.
		if m, err := genLoopProgram(seed); err == nil && bytecode.Verify(m) == nil {
			cls := &classfile.Class{Name: "p/Loop", Methods: []*classfile.Method{m}}
			runEngines(t, cls, "loop", 6, seed%31)
			runEnginesQuantum(t, 7, cls, "loop", 6, seed%31)
		}
		// One invocation of a long loop: a single interpreted frame
		// carries every iteration.
		if m, err := genOSRLoopProgram(seed); err == nil && bytecode.Verify(m) == nil {
			cls := &classfile.Class{Name: "p/OSR", Methods: []*classfile.Method{m}}
			runEngines(t, cls, "loop", 1, seed%31)
		}
	})
}

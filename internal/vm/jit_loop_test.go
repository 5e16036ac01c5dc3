package vm

import (
	"io"
	"slices"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/classfile"
	"repro/internal/jit"
)

// buildLoopDriver assembles p/O with a kernel that is inlinable AND
// calls the native hook, plus loop(x): a 300-iteration loop calling
// kernel each time, which main invokes exactly once. With
// CompileThreshold 1 a loop activation runs promoted from its entry with
// kernel inline-expanded, so the hook can perturb the VM from inside an
// inlined callee; at a higher threshold loop stays an interpreted frame
// calling a promoted kernel out of line. fused(x) is the fused LoopBody
// shape instead — 50 rounds of x = x*31+7 with no call — which is also a
// StaticPlan kernel; only TestJITLoopDriversExact runs it.
func buildLoopDriver(t *testing.T) *classfile.Class {
	t.Helper()
	k := bytecode.NewAssembler()
	k.InvokeStatic("p/O", "hook", "()V")
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
	a.Const(300)
	a.Store(1)
	top := a.NewLabel()
	end := a.NewLabel()
	a.Bind(top)
	a.Load(1)
	a.Ifle(end)
	a.Load(0)
	a.InvokeStatic("p/O", "kernel", "(J)J")
	a.Store(0)
	a.Inc(1, -1)
	a.Goto(top)
	a.Bind(end)
	a.Load(0)
	a.IReturn()
	loop, err := a.FinishMethod("loop", "(J)J", classfile.AccPublic|classfile.AccStatic, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := bytecode.NewAssembler()
	f.Const(50)
	f.Store(1)
	ftop, fend := f.NewLabel(), f.NewLabel()
	f.Bind(ftop)
	f.Load(1)
	f.Ifle(fend)
	f.Load(0)
	f.Const(31)
	f.Mul()
	f.Const(7)
	f.Add()
	f.Store(0)
	f.Inc(1, -1)
	f.Goto(ftop)
	f.Bind(fend)
	f.Load(0)
	f.IReturn()
	fused, err := f.FinishMethod("fused", "(J)J", classfile.AccPublic|classfile.AccStatic, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	hook := &classfile.Method{
		Name: "hook", Desc: "()V",
		Flags: classfile.AccPublic | classfile.AccStatic | classfile.AccNative,
	}
	mn := bytecode.NewAssembler()
	mn.Load(0)
	mn.InvokeStatic("p/O", "loop", "(J)J")
	mn.IReturn()
	mainM, err := mn.FinishMethod("main", "(J)J", classfile.AccPublic|classfile.AccStatic, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	cls := &classfile.Class{Name: "p/O", Methods: []*classfile.Method{mainM, loop, kernel, hook, fused}}
	if err := cls.Validate(); err != nil {
		t.Fatal(err)
	}
	return cls
}

// runLoopDriver executes p/O.loop once under the given engine with
// CompileThreshold 1, so the loop's one activation is promoted from its
// entry, with the hook acting on the fnCall-th call (0 = never), and
// returns the observables plus the VM.
func runLoopDriver(t *testing.T, engine jit.Engine, force bool, fnCall int, fn func(v *VM)) (runOutcome, *VM) {
	t.Helper()
	opts := DefaultOptions()
	opts.Tier = engine
	opts.ForceInstrumentedLoop = force
	opts.CompileThreshold = 1
	return runLoopWith(t, opts, "loop", fnCall, fn)
}

// runLoopWith is runLoopDriver with the options (JITThreshold is set to
// the driver's 4) and the entry method given.
func runLoopWith(t *testing.T, opts Options, entry string, fnCall int, fn func(v *VM)) (runOutcome, *VM) {
	t.Helper()
	opts.JITThreshold = 4
	v := New(opts)
	if err := v.LoadClasses([]*classfile.Class{buildLoopDriver(t).Clone()}); err != nil {
		t.Fatal(err)
	}
	hookCalls := 0
	if err := v.RegisterNative("p/O", "hook", "()V", func(env Env, args []int64) (int64, error) {
		hookCalls++
		if fn != nil && hookCalls == fnCall {
			fn(env.VM())
		}
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
	res, err := v.Run("p/O", entry, "(J)J", 5)
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

// TestJITLoopDriversExact runs the loop drivers — loop, a plain branch
// loop whose body calls out, and fused, the fused LoopBody shape that is
// also a StaticPlan kernel — on the jit and auto engines at hostile
// quanta (1 to 12, so the fused loop's budget guard and the
// per-instruction fallback fire constantly), at the run's own
// instruction count and its neighbours (so a boundary falls on the last
// instruction, where a static plan's budget guard decides), and at the
// default one. Observables and the yield budget left equal the
// instrumented loop's at every quantum. With the default
// CompileThreshold of 3 the loop methods, invoked once, run as
// interpreted frames on the lowering; with 1 they run promoted: loop
// entered directly with kernel inline-expanded, or through main, whose
// unit runs loop's lowering inline and calls kernel out of line. The
// tier counters are pinned per case: they count activations, so no
// quantum moves them.
func TestJITLoopDriversExact(t *testing.T) {
	cases := []struct {
		entry            string
		compileThreshold uint64
		// CompiledFrames and InlinedCalls of the jit and auto runs.
		frames, inlined uint64
	}{
		{"main", 3, 298, 0},
		{"main", 1, 302, 1},
		{"loop", 1, 301, 300},
		{"fused", 3, 0, 0},
		{"fused", 1, 1, 0},
	}
	for _, c := range cases {
		opts := DefaultOptions()
		opts.CompileThreshold = c.compileThreshold
		opts.ForceInstrumentedLoop = true
		whole, _ := runLoopWith(t, opts, c.entry, 0, nil)
		n := int(whole.instrs)
		quanta := []int{DefaultOptions().Quantum, n - 1, n, n + 1}
		for q := 1; q <= 12; q++ {
			quanta = append(quanta, q)
		}
		for _, q := range quanta {
			opts := DefaultOptions()
			opts.Quantum = q
			opts.CompileThreshold = c.compileThreshold
			instOpts := opts
			instOpts.ForceInstrumentedLoop = true
			inst, iv := runLoopWith(t, instOpts, c.entry, 0, nil)
			for _, engine := range []jit.Engine{jit.EngineJIT, jit.EngineAuto} {
				opts.Tier = engine
				got, jv := runLoopWith(t, opts, c.entry, 0, nil)
				if got != inst {
					t.Fatalf("%s %s threshold %d quantum %d: %+v != instrumented %+v",
						c.entry, engine, c.compileThreshold, q, got, inst)
				}
				if b, want := budgetsLeft(jv), budgetsLeft(iv); !slices.Equal(b, want) {
					t.Fatalf("%s %s threshold %d quantum %d: yield budgets left %v, instrumented %v",
						c.entry, engine, c.compileThreshold, q, b, want)
				}
				st := jv.TierStats()
				if st.CompiledFrames != c.frames || st.InlinedCalls != c.inlined {
					t.Errorf("%s %s threshold %d quantum %d: compiled frames %d, inlined calls %d; want %d, %d",
						c.entry, engine, c.compileThreshold, q, st.CompiledFrames, st.InlinedCalls, c.frames, c.inlined)
				}
			}
		}
	}
}

// budgetsLeft is the yield budget each of v's threads has left. A
// single-threaded run shows a quantum boundary that lands on the wrong
// instruction only here: cycles and counts stay the same, but the budget
// the thread carries on does not.
func budgetsLeft(v *VM) []int {
	var b []int
	for _, th := range v.Threads() {
		b = append(b, th.budget)
	}
	return b
}

// TestJITOSRDeoptMidIteration: the loop runs promoted from its entry and
// keeps iterating in compiled code, and then — on hook call 200, from
// inside the INLINED callee, while the inlined frame is logically
// on-stack over the promoted caller frame, mid-iteration — a tracer
// appears. Both activations must leave the template tier at that exact
// boundary and finish on the instrumented interpreter, byte-identically
// to the interpreter engines.
func TestJITOSRDeoptMidIteration(t *testing.T) {
	install := func(v *VM) { v.SetTracer(NewTracer(io.Discard)) }
	inst, _ := runLoopDriver(t, jit.EngineInterp, true, 200, install)
	fast, _ := runLoopDriver(t, jit.EngineInterp, false, 200, install)
	jitted, jv := runLoopDriver(t, jit.EngineJIT, false, 200, install)
	if fast != inst {
		t.Fatalf("fast %+v != instrumented %+v", fast, inst)
	}
	if jitted != inst {
		t.Fatalf("jit %+v != instrumented %+v", jitted, inst)
	}
	st := jv.TierStats()
	if st.CompiledFrames == 0 {
		t.Fatalf("loop never ran promoted before the deopt: %+v", st)
	}
	if st.InlinedCalls == 0 {
		t.Fatalf("hook never ran from an inlined callee: %+v", st)
	}
	if st.DeoptFrames == 0 {
		t.Fatalf("tracer install did not deopt the promoted frame: %+v", st)
	}
}

// TestJITInlineTransitiveRelinkInvalidation is the regression test for
// transitive relink invalidation: a LoadClass must not only drop the
// redefined-world units themselves but also every CALLER unit holding an
// inline-expanded copy of a callee, and the recompiled caller must
// re-expand against the post-relink world. The driver's hook loads a
// fresh class while drive — whose unit carries kernel inlined — is
// on-stack compiled; the stale inline copy must never run again.
func TestJITInlineTransitiveRelinkInvalidation(t *testing.T) {
	extra := &classfile.Class{Name: "p/Extra2", Methods: []*classfile.Method{{
		Name: "noop", Desc: "()V",
		Flags: classfile.AccPublic | classfile.AccStatic | classfile.AccNative,
	}}}
	jv := assertEnginesAgree(t, func(v *VM) {
		if _, err := v.LoadClass(extra.Clone()); err != nil {
			t.Error(err)
		}
	})
	st := jv.TierStats()
	if st.UnitsInvalidated == 0 || st.Epoch == 0 {
		t.Fatalf("LoadClass did not invalidate units: %+v", st)
	}
	// drive inlines kernel; it was hot before and after the relink, so the
	// inline site must have been expanded once per epoch — a stale cached
	// expansion surviving the bump would leave InlinedSites at 1.
	if st.InlinedSites < 2 {
		t.Fatalf("caller unit with inlined callee was not re-expanded after relink (InlinedSites=%d): %+v",
			st.InlinedSites, st)
	}
	c, err := jv.Class("p/T")
	if err != nil {
		t.Fatal(err)
	}
	u := c.Method("drive", "(J)J").unit
	if u == nil || len(u.Inlines) == 0 {
		t.Fatal("recompiled caller lost its inline site after relink")
	}
	// The re-expanded site must be keyed to the CURRENT resolution of the
	// callee — the run-time guard that makes invalidation transitive even
	// for units that somehow survive.
	if u.Inlines[0].Key != any(c.Method("kernel", "(J)J")) {
		t.Fatal("re-expanded inline site keyed to a stale callee resolution")
	}
}

// TestJITInlineStaleKeyGuard pins the run-time half of transitive
// invalidation: if a unit's inline site is keyed to anything other than
// the call site's current resolved callee (as after a relink that
// rebound the callee), the call must route out-of-line — same
// observables, no use of the stale expansion — rather than run the
// stale copy or crash.
func TestJITInlineStaleKeyGuard(t *testing.T) {
	// Reference run: untampered observables.
	ref, _ := runLoopDriver(t, jit.EngineInterp, true, 0, nil)

	opts := DefaultOptions()
	opts.JITThreshold = 4
	opts.CompileThreshold = 1
	opts.Tier = jit.EngineJIT
	v := New(opts)
	if err := v.LoadClasses([]*classfile.Class{buildLoopDriver(t).Clone()}); err != nil {
		t.Fatal(err)
	}
	if err := v.RegisterNative("p/O", "hook", "()V", func(env Env, args []int64) (int64, error) {
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
	// Warm the loop into its promoted unit, then poison the inline site's
	// key the way a relink rebind would: the site no longer matches the
	// call site's resolved callee.
	if _, err := v.Run("p/O", "loop", "(J)J", 5); err != nil {
		t.Fatal(err)
	}
	c, err := v.Class("p/O")
	if err != nil {
		t.Fatal(err)
	}
	u := c.Method("loop", "(J)J").unit
	if u == nil || len(u.Inlines) == 0 {
		t.Fatal("warmup did not produce an inline site to poison")
	}
	u.Inlines[0].Key = "stale"
	before := v.TierStats().InlinedCalls

	th := v.NewDetachedThread("stale")
	got, err := th.InvokeStatic("p/O", "loop", "(J)J", 5)
	if err != nil {
		t.Fatal(err)
	}
	if got != ref.result {
		t.Fatalf("stale-keyed run returned %d, want %d", got, ref.result)
	}
	if after := v.TierStats().InlinedCalls; after != before {
		t.Fatalf("stale-keyed inline site was still executed (%d -> %d inlined calls)", before, after)
	}
}

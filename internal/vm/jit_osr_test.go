package vm

import (
	"io"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/classfile"
	"repro/internal/jit"
)

// buildOSRDriver assembles p/O with a kernel that is inlinable AND calls
// the native hook, plus osr(x): a 300-iteration loop calling kernel each
// time. main invokes osr exactly once, so with the test thresholds entry
// promotion can never fire for osr — crossing the backward-branch
// threshold mid-loop is the only route into compiled code, which makes
// every compiled frame in these tests an OSR entry with an inlined
// callee that can perturb the VM from the inside. fused(x) is the
// fused LoopBody shape instead — 50 rounds of x = x*31+7 with no call —
// which is also a StaticPlan kernel; only TestJITOSRExactThreshold runs
// it.
func buildOSRDriver(t *testing.T) *classfile.Class {
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
	osr, err := a.FinishMethod("osr", "(J)J", classfile.AccPublic|classfile.AccStatic, 2, nil)
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
	mn.InvokeStatic("p/O", "osr", "(J)J")
	mn.IReturn()
	mainM, err := mn.FinishMethod("main", "(J)J", classfile.AccPublic|classfile.AccStatic, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	cls := &classfile.Class{Name: "p/O", Methods: []*classfile.Method{mainM, osr, kernel, hook, fused}}
	if err := cls.Validate(); err != nil {
		t.Fatal(err)
	}
	return cls
}

// runOSRDriver executes p/O.main once under the given engine, with the
// hook acting on the fnCall-th call (0 = never), and returns the
// observables plus the VM.
func runOSRDriver(t *testing.T, engine jit.Engine, force bool, fnCall int, fn func(v *VM)) (runOutcome, *VM) {
	t.Helper()
	opts := DefaultOptions()
	opts.Tier = engine
	opts.ForceInstrumentedLoop = force
	return runOSRWith(t, opts, "main", fnCall, fn)
}

// runOSRWith is runOSRDriver with the options (JITThreshold and
// CompileThreshold are set to the driver's 4 and 3) and the entry method
// given.
func runOSRWith(t *testing.T, opts Options, entry string, fnCall int, fn func(v *VM)) (runOutcome, *VM) {
	t.Helper()
	opts.JITThreshold = 4
	opts.CompileThreshold = 3
	v := New(opts)
	if err := v.LoadClasses([]*classfile.Class{buildOSRDriver(t).Clone()}); err != nil {
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

// assertOSREnginesAgree runs the OSR driver under all three engines with
// the hook acting on call fnCall, fails on any observable divergence,
// and returns the jit VM for tier-state assertions.
func assertOSREnginesAgree(t *testing.T, fnCall int, fn func(v *VM)) *VM {
	t.Helper()
	inst, _ := runOSRDriver(t, jit.EngineInterp, true, fnCall, fn)
	fast, _ := runOSRDriver(t, jit.EngineInterp, false, fnCall, fn)
	jitted, jv := runOSRDriver(t, jit.EngineJIT, false, fnCall, fn)
	if fast != inst {
		t.Fatalf("fast %+v != instrumented %+v", fast, inst)
	}
	if jitted != inst {
		t.Fatalf("jit %+v != instrumented %+v", jitted, inst)
	}
	return jv
}

// TestJITOSRPromotesMidIteration: a loop crossed exactly once still ends
// up in compiled code — the backward-branch counter promotes the
// activation mid-iteration and enters the unit at the loop header — with
// observables byte-identical to both interpreter engines.
func TestJITOSRPromotesMidIteration(t *testing.T) {
	jv := assertOSREnginesAgree(t, 0, nil)
	st := jv.TierStats()
	if st.OSREntries == 0 {
		t.Fatalf("single-invocation hot loop was never OSR-promoted: %+v", st)
	}
	if st.CompiledFrames == 0 || st.MethodsCompiled == 0 {
		t.Fatalf("OSR promotion produced no compiled execution: %+v", st)
	}
	// The per-method view must attribute the OSR entry to the loop method.
	var osrRow *jit.MethodStats
	for i := range st.PerMethod {
		if st.PerMethod[i].Method == "p/O.osr(J)J" {
			osrRow = &st.PerMethod[i]
		}
	}
	if osrRow == nil || osrRow.OSREntries == 0 {
		t.Fatalf("per-method stats missing the OSR entry: %+v", st.PerMethod)
	}
}

// TestJITOSRExactThreshold pins on-stack replacement to the exact
// back-edge. An interpreted frame counts every taken back-edge — of a
// plain branch loop (osr, whose body calls out) and of the fused
// LoopBody shape (fused, a StaticPlan kernel as well) — and enters the
// promoted unit at the OSRThreshold-th one, so the loop method's edge
// count stops exactly at the threshold; below it every edge counts and no
// OSR happens. Observables equal the instrumented loop's, and the tier
// counters are pinned to the values the earlier per-instruction
// interpreter loop produced for the same runs.
func TestJITOSRExactThreshold(t *testing.T) {
	cases := []struct {
		entry, loop string
		edges       uint64 // taken back-edges of the loop in one run
		threshold   uint64
		// OSREntries, CompiledFrames and InlinedCalls of the jit run.
		osr, frames, inlined uint64
	}{
		{"main", "osr", 300, 1, 1, 300, 299},
		{"main", "osr", 300, 2, 1, 299, 298},
		{"main", "osr", 300, 64, 1, 299, 236},
		{"main", "osr", 300, 300, 1, 299, 0},
		{"main", "osr", 300, 301, 0, 298, 0},
		{"fused", "fused", 50, 1, 1, 1, 0},
		{"fused", "fused", 50, 7, 1, 1, 0},
		{"fused", "fused", 50, 50, 1, 1, 0},
		{"fused", "fused", 50, 51, 0, 0, 0},
	}
	for _, c := range cases {
		opts := DefaultOptions()
		opts.OSRThreshold = c.threshold
		instOpts := opts
		instOpts.ForceInstrumentedLoop = true
		inst, _ := runOSRWith(t, instOpts, c.entry, 0, nil)
		opts.Tier = jit.EngineJIT
		got, jv := runOSRWith(t, opts, c.entry, 0, nil)
		if got != inst {
			t.Fatalf("%s threshold %d: jit %+v != instrumented %+v", c.loop, c.threshold, got, inst)
		}
		cls, err := jv.Class("p/O")
		if err != nil {
			t.Fatal(err)
		}
		if e, want := cls.Method(c.loop, "(J)J").osrEdges, min(c.threshold, c.edges); e != want {
			t.Errorf("%s threshold %d: %d back-edges counted, want %d", c.loop, c.threshold, e, want)
		}
		st := jv.TierStats()
		if st.OSREntries != c.osr || st.CompiledFrames != c.frames || st.InlinedCalls != c.inlined {
			t.Errorf("%s threshold %d: OSR entries %d, compiled frames %d, inlined calls %d; want %d, %d, %d",
				c.loop, c.threshold, st.OSREntries, st.CompiledFrames, st.InlinedCalls, c.osr, c.frames, c.inlined)
		}
	}
}

// TestJITOSRInlinedCallsAfterPromotion: the unit the OSR transition
// enters carries the loop's call site inline-expanded, so the remaining
// iterations run the callee inside the caller's frame — and the counts
// prove it actually happened on the OSR'd activation.
func TestJITOSRInlinedCallsAfterPromotion(t *testing.T) {
	jv := assertOSREnginesAgree(t, 0, nil)
	st := jv.TierStats()
	if st.OSREntries == 0 || st.InlinedSites == 0 || st.InlinedCalls == 0 {
		t.Fatalf("OSR'd loop did not run its callee inlined: %+v", st)
	}
}

// TestJITOSRDeoptMidIteration: the loop is OSR-promoted (edge threshold
// 64 crossed), keeps iterating in compiled code, and then — on hook call
// 200, from inside the INLINED callee, while the inlined frame is
// logically on-stack over the OSR-entered caller frame — a tracer
// appears. Both activations must leave the template tier at that exact
// boundary and finish on the instrumented interpreter, byte-identically
// to the interpreter engines.
func TestJITOSRDeoptMidIteration(t *testing.T) {
	jv := assertOSREnginesAgree(t, 200, func(v *VM) {
		v.SetTracer(NewTracer(io.Discard))
	})
	st := jv.TierStats()
	if st.OSREntries == 0 {
		t.Fatalf("loop was never OSR-promoted before the deopt: %+v", st)
	}
	if st.InlinedCalls == 0 {
		t.Fatalf("hook never ran from an inlined callee: %+v", st)
	}
	if st.DeoptFrames == 0 {
		t.Fatalf("tracer install did not deopt the OSR'd frame: %+v", st)
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
	ref, _ := runOSRDriver(t, jit.EngineInterp, true, 0, nil)

	opts := DefaultOptions()
	opts.JITThreshold = 4
	opts.CompileThreshold = 3
	opts.Tier = jit.EngineJIT
	v := New(opts)
	if err := v.LoadClasses([]*classfile.Class{buildOSRDriver(t).Clone()}); err != nil {
		t.Fatal(err)
	}
	if err := v.RegisterNative("p/O", "hook", "()V", func(env Env, args []int64) (int64, error) {
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
	// Warm the loop into its OSR unit, then poison the inline site's key
	// the way a relink rebind would: the site no longer matches the call
	// site's resolved callee.
	if _, err := v.Run("p/O", "main", "(J)J", 5); err != nil {
		t.Fatal(err)
	}
	c, err := v.Class("p/O")
	if err != nil {
		t.Fatal(err)
	}
	u := c.Method("osr", "(J)J").unit
	if u == nil || len(u.Inlines) == 0 {
		t.Fatal("warmup did not produce an inline site to poison")
	}
	u.Inlines[0].Key = "stale"
	before := v.TierStats().InlinedCalls

	th := v.NewDetachedThread("stale")
	got, err := th.InvokeStatic("p/O", "main", "(J)J", 5)
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

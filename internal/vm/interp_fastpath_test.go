package vm

import (
	"testing"
	"testing/quick"

	"repro/internal/bytecode"
	"repro/internal/classfile"
	"repro/internal/jit"
)

// Interpreted frames on the block executor and the instrumented loop
// must be observably identical. These tests run the same programs under
// both (Options.ForceInstrumentedLoop selects the instrumented loop even
// without a tracer or sampler) and compare every piece of state the
// engine exposes.

// runBoth executes method m (class cls) with the given args on two fresh
// VMs, one per dispatch loop, and compares result, error, cycle counter,
// ground truth, instruction count and the remaining yield budget (which
// pins every yield to the same instruction boundary).
func runBoth(t *testing.T, opts Options, cls *classfile.Class, method, desc string, args ...int64) (int64, error) {
	t.Helper()
	ret, err, _ := runLoops(t, opts, cls, nil, method, desc, args...)
	return ret, err
}

// runLoops is runBoth with a hook that adjusts each VM after loading
// (nil for none); it also returns the block-executor VM for its tier
// stats.
func runLoops(t *testing.T, opts Options, cls *classfile.Class, prep func(*VM),
	method, desc string, args ...int64) (int64, error, *VM) {
	t.Helper()
	type outcome struct {
		ret        int64
		err        error
		cycles     uint64
		instrs     uint64
		bc, nat, o uint64
		budget     int
	}
	run := func(force bool) (outcome, *VM) {
		o := opts
		o.ForceInstrumentedLoop = force
		v := New(o)
		if err := v.LoadClasses([]*classfile.Class{cls}); err != nil {
			t.Fatal(err)
		}
		if prep != nil {
			prep(v)
		}
		th := v.NewDetachedThread("diff")
		ret, err := th.InvokeStatic(cls.Name, method, desc, args...)
		bc, nat, ovh := th.GroundTruth()
		return outcome{ret, err, th.Cycles(), th.InstructionsExecuted(), bc, nat, ovh, th.budget}, v
	}
	fast, fv := run(false)
	slow, _ := run(true)
	if fast.ret != slow.ret ||
		(fast.err == nil) != (slow.err == nil) ||
		fast.cycles != slow.cycles ||
		fast.instrs != slow.instrs ||
		fast.bc != slow.bc || fast.nat != slow.nat || fast.o != slow.o ||
		fast.budget != slow.budget {
		t.Fatalf("block executor diverged from instrumented loop:\nfast: %+v\nslow: %+v", fast, slow)
	}
	if fast.err != nil && slow.err != nil && fast.err.Error() != slow.err.Error() {
		t.Fatalf("error text diverged: fast %q, slow %q", fast.err, slow.err)
	}
	return fast.ret, fast.err, fv
}

// TestFastLoopMatchesInstrumentedRandom: random arithmetic programs
// produce identical results, cycles and instruction counts on both loops.
func TestFastLoopMatchesInstrumentedRandom(t *testing.T) {
	f := func(seed int64) bool {
		m, want, err := genProgram(seed)
		if err != nil {
			return false
		}
		cls := &classfile.Class{Name: "fp/Gen", Methods: []*classfile.Method{m}}
		got, err := runBoth(t, DefaultOptions(), cls, "gen", "()J")
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestFastLoopMatchesInstrumentedExceptions covers the throw/handler path
// of both loops, including a divide-by-zero mid-run and an uncaught throw.
func TestFastLoopMatchesInstrumentedExceptions(t *testing.T) {
	// guard(x): try { return 100/x } catch (v) { return -7 }
	a := bytecode.NewAssembler()
	start := a.Offset()
	a.Const(100)
	a.Load(0)
	a.Div()
	a.IReturn()
	end := a.Offset()
	a.EnterHandler()
	a.Pop()
	a.Const(-7)
	a.IReturn()
	code, consts, refs, maxStack, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	m := &classfile.Method{
		Name: "guard", Desc: "(J)J", Flags: classfile.AccStatic,
		MaxStack: maxStack + 1, MaxLocals: 1,
		Code: code, Consts: consts, Refs: refs,
		Handlers: []classfile.ExceptionEntry{{StartPC: start, EndPC: end, HandlerPC: end}},
	}
	if err := bytecode.Verify(m); err != nil {
		t.Fatal(err)
	}

	// boom(x): return x/0 — uncaught ArithmeticException.
	b := bytecode.NewAssembler()
	b.Load(0)
	b.Const(0)
	b.Div()
	b.IReturn()
	boom, err := b.FinishMethod("boom", "(J)J", classfile.AccStatic, 1, nil)
	if err != nil {
		t.Fatal(err)
	}

	cls := &classfile.Class{Name: "fp/Exc", Methods: []*classfile.Method{m, boom}}
	for _, x := range []int64{4, 1, 0, -5} {
		got, err := runBoth(t, DefaultOptions(), cls, "guard", "(J)J", x)
		if err != nil {
			t.Fatalf("guard(%d): %v", x, err)
		}
		want := int64(-7)
		if x != 0 {
			want = 100 / x
		}
		if got != want {
			t.Fatalf("guard(%d) = %d, want %d", x, got, want)
		}
	}
	if _, err := runBoth(t, DefaultOptions(), cls, "boom", "(J)J", 9); err == nil {
		t.Fatal("boom did not throw on either loop")
	}
}

// TestFastLoopMatchesInstrumentedTightQuantum forces yield budgeting
// through every batched-run edge case: quanta smaller than, equal to and
// barely above typical run lengths.
func TestFastLoopMatchesInstrumentedTightQuantum(t *testing.T) {
	a := bytecode.NewAssembler()
	a.Const(0)
	a.Store(1)
	top := a.NewLabel()
	end := a.NewLabel()
	a.Bind(top)
	a.Load(0)
	a.Ifle(end)
	a.Load(1)
	a.Load(0)
	a.Add()
	a.Store(1)
	a.Inc(0, -1)
	a.Goto(top)
	a.Bind(end)
	a.Load(1)
	a.IReturn()
	m, err := a.FinishMethod("sum", "(J)J", classfile.AccStatic, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	cls := &classfile.Class{Name: "fp/Q", Methods: []*classfile.Method{m}}
	for _, quantum := range []int{1, 2, 3, 5, 7, 4096} {
		opts := DefaultOptions()
		opts.Quantum = quantum
		got, err := runBoth(t, opts, cls, "sum", "(J)J", 100)
		if err != nil {
			t.Fatalf("quantum %d: %v", quantum, err)
		}
		if got != 5050 {
			t.Fatalf("quantum %d: sum = %d, want 5050", quantum, got)
		}
	}
}

// TestFrameArenaReuse pins the pooling behaviour: repeated calls reuse the
// arena (offset returns to zero), and deep recursion grows it without
// corrupting caller frames.
func TestFrameArenaReuse(t *testing.T) {
	// rec(n): if n <= 0 return 0; return n + rec(n-1)
	a := bytecode.NewAssembler()
	leaf := a.NewLabel()
	a.Load(0)
	a.Ifle(leaf)
	a.Load(0)
	a.Load(0)
	a.Const(1)
	a.Sub()
	a.InvokeStatic("fp/R", "rec", "(J)J")
	a.Add()
	a.IReturn()
	a.Bind(leaf)
	a.Const(0)
	a.IReturn()
	m, err := a.FinishMethod("rec", "(J)J", classfile.AccStatic, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := New(DefaultOptions())
	cls := &classfile.Class{Name: "fp/R", Methods: []*classfile.Method{m}}
	if err := v.LoadClasses([]*classfile.Class{cls}); err != nil {
		t.Fatal(err)
	}
	th := v.NewDetachedThread("rec")
	for i := 0; i < 3; i++ {
		got, err := th.InvokeStatic("fp/R", "rec", "(J)J", 500)
		if err != nil {
			t.Fatal(err)
		}
		if got != 500*501/2 {
			t.Fatalf("rec(500) = %d", got)
		}
		if th.arenaOff != 0 {
			t.Fatalf("arena offset %d after call %d, want 0", th.arenaOff, i)
		}
	}
	if len(th.arena) < 500 {
		t.Fatalf("arena did not grow for deep recursion: %d words", len(th.arena))
	}
}

// TestRefCachesResolveAcrossLoadOrder: a call site whose target class
// loads later must resolve through the relink pass, and an unresolvable
// ref must keep producing the historical error.
func TestRefCachesResolveAcrossLoadOrder(t *testing.T) {
	caller := bytecode.NewAssembler()
	caller.InvokeStatic("fp/Late", "answer", "()J")
	caller.IReturn()
	cm, err := caller.FinishMethod("call", "()J", classfile.AccStatic, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	callee := bytecode.NewAssembler()
	callee.Const(42)
	callee.IReturn()
	lm, err := callee.FinishMethod("answer", "()J", classfile.AccStatic, 0, nil)
	if err != nil {
		t.Fatal(err)
	}

	v := New(DefaultOptions())
	if err := v.LoadClasses([]*classfile.Class{
		{Name: "fp/Early", Methods: []*classfile.Method{cm}},
	}); err != nil {
		t.Fatal(err)
	}
	th := v.NewDetachedThread("t")
	if _, err := th.InvokeStatic("fp/Early", "call", "()J"); err == nil {
		t.Fatal("call resolved before fp/Late was loaded")
	}
	if _, err := v.LoadClass(&classfile.Class{Name: "fp/Late", Methods: []*classfile.Method{lm}}); err != nil {
		t.Fatal(err)
	}
	got, err := th.InvokeStatic("fp/Early", "call", "()J")
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("call = %d, want 42", got)
	}
}

// finish assembles a one-class test program around a into method name.
func finish(t *testing.T, a *bytecode.Assembler, name, desc string, maxLocals int,
	handlers ...classfile.ExceptionEntry) *classfile.Class {
	t.Helper()
	m, err := a.FinishMethod(name, desc, classfile.AccStatic, maxLocals, handlers)
	if err != nil {
		t.Fatal(err)
	}
	return &classfile.Class{Name: "fp/" + name, Methods: []*classfile.Method{m}}
}

// TestFastLoopMatchesInstrumentedFoldedReturn: the lowering folds an
// ireturn's operand into the terminator (a local or an immediate, never
// written to the operand stack), so the chunk and its ireturn run as one
// batch — or, under a short budget, both step singly.
func TestFastLoopMatchesInstrumentedFoldedReturn(t *testing.T) {
	local := bytecode.NewAssembler()
	local.Load(0)
	local.IReturn()
	imm := bytecode.NewAssembler()
	imm.Const(-42)
	imm.IReturn()
	sum := bytecode.NewAssembler()
	sum.Load(0)
	sum.Const(3)
	sum.Mul()
	sum.Load(0)
	sum.Add()
	sum.IReturn()
	for _, c := range []struct {
		cls  *classfile.Class
		want int64
	}{
		{finish(t, local, "local", "(J)J", 1), 9},
		{finish(t, imm, "imm", "(J)J", 1), -42},
		{finish(t, sum, "sum", "(J)J", 1), 36},
	} {
		name := c.cls.Methods[0].Name
		for q := 1; q <= 4; q++ {
			opts := DefaultOptions()
			opts.Quantum = q
			got, err, _ := runLoops(t, opts, c.cls, nil, name, "(J)J", 9)
			if err != nil || got != c.want {
				t.Fatalf("%s quantum %d = %d, %v; want %d", name, q, got, err, c.want)
			}
		}
	}
}

// TestFastLoopMatchesInstrumentedThrowAfterChunk: a throw ends the pure
// chunk before it, whose ops may hold the thrown value away from the
// operand stack, so the chunk steps singly into the per-instruction
// throw — caught by a handler, and uncaught.
func TestFastLoopMatchesInstrumentedThrowAfterChunk(t *testing.T) {
	// Each body leaves x+5 as the value to throw: from a local (folded),
	// from an immediate (folded), or computed into the operand stack.
	bodies := map[string]func(a *bytecode.Assembler){
		"local": func(a *bytecode.Assembler) {
			a.Load(0)
			a.Const(5)
			a.Add()
			a.Store(1)
			a.Load(1)
		},
		"imm":      func(a *bytecode.Assembler) { a.Const(15) },
		"computed": func(a *bytecode.Assembler) { a.Load(0); a.Const(5); a.Add() },
	}
	for name, body := range bodies {
		for _, caught := range []bool{true, false} {
			a := bytecode.NewAssembler()
			body(a)
			a.Throw()
			end := a.Offset()
			var hs []classfile.ExceptionEntry
			if caught {
				a.EnterHandler()
				a.Const(1)
				a.Add()
				a.IReturn()
				hs = append(hs, classfile.ExceptionEntry{StartPC: 0, EndPC: end, HandlerPC: end})
			}
			cls := finish(t, a, name, "(J)J", 2, hs...)
			got, err := runBoth(t, DefaultOptions(), cls, name, "(J)J", 10)
			if caught && (err != nil || got != 16) {
				t.Fatalf("%s caught = %d, %v; want 16", name, got, err)
			}
			if !caught && err == nil {
				t.Fatalf("%s: uncaught throw returned normally", name)
			}
		}
	}
}

// TestFastLoopMatchesInstrumentedHandlerChunk: a handler block enters its
// first chunk at stack depth 1, with the thrown value in the canonical
// home of depth 0, and loops through batched chunks from there.
func TestFastLoopMatchesInstrumentedHandlerChunk(t *testing.T) {
	// h(x): try { return 1000 / x } catch (v) { r = v*3 + x; x = 6; while x > 0 { r += x; x-- }; return r }
	a := bytecode.NewAssembler()
	a.Const(1000)
	a.Load(0)
	a.Div()
	a.IReturn()
	end := a.Offset()
	a.EnterHandler()
	a.Const(3)
	a.Mul()
	a.Load(0)
	a.Add()
	a.Store(1)
	a.Const(6)
	a.Store(0)
	top := a.NewLabel()
	done := a.NewLabel()
	a.Bind(top)
	a.Load(0)
	a.Ifle(done)
	a.Load(1)
	a.Load(0)
	a.Add()
	a.Store(1)
	a.Inc(0, -1)
	a.Goto(top)
	a.Bind(done)
	a.Load(1)
	a.IReturn()
	cls := finish(t, a, "h", "(J)J", 2, classfile.ExceptionEntry{StartPC: 0, EndPC: end, HandlerPC: end})
	for _, q := range []int{1, 2, 3, 7, 4096} {
		opts := DefaultOptions()
		opts.Quantum = q
		for _, x := range []int64{0, 8} {
			want := int64(1000 / max(x, 1))
			if x == 0 {
				want = 1000*3 + 21 // the thrown value is the dividend
			}
			got, err := runBoth(t, opts, cls, "h", "(J)J", x)
			if err != nil || got != want {
				t.Fatalf("quantum %d: h(%d) = %d, %v; want %d", q, x, got, err, want)
			}
		}
	}
}

// fastLoopKernels are the generated workloads' two hot loop shapes: the
// x = x*31+7 recurrence, and an array fill-then-sum whose trapping
// accesses split the loop bodies into pure chunks around effects.
func fastLoopKernels(t *testing.T) []*classfile.Class {
	k := bytecode.NewAssembler()
	k.Const(40)
	k.Store(1)
	top := k.NewLabel()
	end := k.NewLabel()
	k.Bind(top)
	k.Load(1)
	k.Ifle(end)
	k.Load(0)
	k.Const(31)
	k.Mul()
	k.Const(7)
	k.Add()
	k.Store(0)
	k.Inc(1, -1)
	k.Goto(top)
	k.Bind(end)
	k.Load(0)
	k.IReturn()

	a := bytecode.NewAssembler()
	a.Load(0)
	a.NewArray()
	a.Store(1)
	a.Const(0)
	a.Store(2)
	fill, filled := a.NewLabel(), a.NewLabel()
	a.Bind(fill)
	a.Load(2)
	a.Load(0)
	a.IfCmpge(filled)
	a.Load(1)
	a.Load(2)
	a.Load(2)
	a.Const(3)
	a.Mul()
	a.Const(1)
	a.Add()
	a.AStore()
	a.Inc(2, 1)
	a.Goto(fill)
	a.Bind(filled)
	a.Const(0)
	a.Store(3)
	a.Const(0)
	a.Store(2)
	sum, summed := a.NewLabel(), a.NewLabel()
	a.Bind(sum)
	a.Load(2)
	a.Load(0)
	a.IfCmpge(summed)
	a.Load(3)
	a.Load(1)
	a.Load(2)
	a.ALoad()
	a.Add()
	a.Store(3)
	a.Inc(2, 1)
	a.Goto(sum)
	a.Bind(summed)
	a.Load(3)
	a.IReturn()
	return []*classfile.Class{finish(t, k, "kernel", "(J)J", 2), finish(t, a, "array", "(J)J", 4)}
}

// TestFastLoopMatchesInstrumentedQuanta: every quantum from 1 to 12 over
// both kernels, so yields land on every offset inside the batched chunks
// and the loop re-enters chunks mid-way; the default quantum must run
// the kernels' straight-line code as batches.
func TestFastLoopMatchesInstrumentedQuanta(t *testing.T) {
	for _, cls := range fastLoopKernels(t) {
		name := cls.Methods[0].Name
		var want int64
		for q := 1; q <= 12; q++ {
			opts := DefaultOptions()
			opts.Quantum = q
			got, err := runBoth(t, opts, cls, name, "(J)J", 25)
			if err != nil {
				t.Fatalf("%s quantum %d: %v", name, q, err)
			}
			if q > 1 && got != want {
				t.Fatalf("%s quantum %d = %d, quantum 1 gave %d", name, q, got, want)
			}
			want = got
		}
		_, _, fv := runLoops(t, DefaultOptions(), cls, nil, name, "(J)J", 25)
		if fv.TierStats().SuperinstrPairs == 0 {
			t.Fatalf("%s: interpreted frames batched no straight-line code", name)
		}
	}
}

// TestFastLoopMatchesInstrumentedWithoutLowering: a method whose lowering
// failed has nothing for the block executor to run, so its interpreted
// frames fall back to the instrumented loop — no batches, no compiled
// frames — and promotion pins it to the interpreter.
func TestFastLoopMatchesInstrumentedWithoutLowering(t *testing.T) {
	unlower := func(v *VM) {
		for _, c := range v.classes {
			for _, m := range c.methods {
				m.lowered = nil
			}
		}
	}
	for _, cls := range fastLoopKernels(t) {
		name := cls.Methods[0].Name
		want, err := runBoth(t, DefaultOptions(), cls, name, "(J)J", 25)
		if err != nil {
			t.Fatal(err)
		}
		for _, tier := range []jit.Engine{jit.EngineInterp, jit.EngineJIT} {
			for _, q := range []int{5, DefaultOptions().Quantum} {
				opts := DefaultOptions()
				opts.Tier = tier
				opts.Quantum = q
				opts.CompileThreshold = 1 // the jit leg tries to promote at once
				got, err, fv := runLoops(t, opts, cls, unlower, name, "(J)J", 25)
				if err != nil || got != want {
					t.Fatalf("%s %s quantum %d: %d, %v; want %d", name, tier, q, got, err, want)
				}
				st := fv.TierStats()
				if st.SuperinstrPairs != 0 || st.CompiledFrames != 0 {
					t.Fatalf("%s %s quantum %d: ran lowered code without a lowering: %+v", name, tier, q, st)
				}
				if tier == jit.EngineJIT && st.CompileFailures == 0 {
					t.Fatalf("%s: promotion of an unlowered method did not fail", name)
				}
			}
		}
	}
}

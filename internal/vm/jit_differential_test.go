package vm

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bytecode"
	"repro/internal/classfile"
	"repro/internal/difftest"
	"repro/internal/jit"
)

// runEngines executes the same single-method program under all three
// engines (instrumented interpreter, fast interpreter, template jit) and
// fails the test on any observable divergence: result, error text, cycle
// counter, ground truth, or instruction count, compared per call through
// the difftest oracle (difftest is stdlib-only precisely so this
// package's internal tests can use it without an import cycle; the
// Obs fields the thread API cannot see stay zero on every leg), plus the
// yield budget left after each call, which fixes where the next yield
// lands. invocations crosses the compile threshold so later calls run
// compiled. It returns the jit VM for tier-state assertions.
func runEngines(t *testing.T, cls *classfile.Class, method string, invocations int, args ...int64) *VM {
	t.Helper()
	return runEnginesQuantum(t, 0, cls, method, invocations, args...)
}

// runEnginesQuantum is runEngines under the given scheduling quantum
// (0 keeps the default).
func runEnginesQuantum(t *testing.T, quantum int, cls *classfile.Class, method string, invocations int, args ...int64) *VM {
	t.Helper()
	run := func(opts Options) ([]difftest.Obs, []int, *VM) {
		v := New(opts)
		if err := v.LoadClasses([]*classfile.Class{cls.Clone()}); err != nil {
			t.Fatal(err)
		}
		th := v.NewDetachedThread("diff")
		var outs []difftest.Obs
		var budgets []int
		for i := 0; i < invocations; i++ {
			ret, err := th.InvokeStatic(cls.Name, method, cls.Methods[0].Desc, args...)
			o := difftest.Obs{
				MainResult:   ret,
				TotalCycles:  th.Cycles(),
				Instructions: th.InstructionsExecuted(),
			}
			o.BytecodeCycles, _, o.OverheadCycles = th.GroundTruth()
			if err != nil {
				o.Err = err.Error()
			}
			outs = append(outs, o)
			budgets = append(budgets, th.budget)
		}
		return outs, budgets, v
	}
	base := DefaultOptions()
	base.JITThreshold = 4
	base.CompileThreshold = 3
	if quantum > 0 {
		base.Quantum = quantum
	}

	instOpts := base
	instOpts.ForceInstrumentedLoop = true
	inst, instB, _ := run(instOpts)

	fast, fastB, _ := run(base)

	jitOpts := base
	jitOpts.Tier = jit.EngineJIT
	jitted, jitB, jv := run(jitOpts)

	for i := range inst {
		v := difftest.Judge(fmt.Sprintf("%s.%s call %d", cls.Name, method, i), []difftest.Leg{
			{Label: "instrumented", Obs: inst[i]},
			{Label: "fast", Obs: fast[i]},
			{Label: "jit", Obs: jitted[i]},
		})
		if v.Diverged() {
			t.Fatal(v)
		}
		if fastB[i] != instB[i] || jitB[i] != instB[i] {
			t.Fatalf("%s.%s call %d: yield budget instrumented %d fast %d jit %d",
				cls.Name, method, i, instB[i], fastB[i], jitB[i])
		}
	}
	return jv
}

// mustClass wraps one method in a loadable class.
func mustClass(t *testing.T, name string, methods ...*classfile.Method) *classfile.Class {
	t.Helper()
	cls := &classfile.Class{Name: name, Methods: methods}
	if err := cls.Validate(); err != nil {
		t.Fatal(err)
	}
	return cls
}

// TestJITDifferentialRandomPrograms is the property half of the tier's
// differential contract: random straight-line arithmetic programs produce
// identical results, cycles, ground truth and instruction counts on the
// instrumented loop, interpreted frames on the block executor, and
// promoted frames.
func TestJITDifferentialRandomPrograms(t *testing.T) {
	f := func(seed int64) bool {
		m, want, err := genProgram(seed)
		if err != nil || bytecode.Verify(m) != nil {
			t.Logf("seed %d: generation failed: %v", seed, err)
			return false
		}
		cls := &classfile.Class{Name: "p/Gen", Methods: []*classfile.Method{m}}
		jv := runEngines(t, cls, "gen", 8)
		c, _ := jv.Class("p/Gen")
		th := jv.NewDetachedThread("check")
		got, err := th.InvokeStatic("p/Gen", "gen", "()J")
		if err != nil || got != want {
			t.Logf("seed %d: got %d (%v), want %d", seed, got, err, want)
			return false
		}
		if !c.Method("gen", "()J").IsCompiled() {
			t.Logf("seed %d: simulated JIT did not compile", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// genLoopProgram assembles a random looping method: a counted loop whose
// body mixes arithmetic over two locals with optional div (guarded),
// conditional branches, array accesses and a trailing accumulator fold —
// control-flow coverage the straight-line generator cannot provide.
//
// The array ops address local 3, set before the loop: usually a fresh
// array of 0–8 words, sometimes null or a handle no array has. Their
// indexes are drawn so some iterations stay in range and others fall out
// of it, and a rem by a drawn modulus or a div by i-k can hit zero, so
// the body's array ops and divisions trap mid-loop. Half the programs
// cover the body with a handler that folds the thrown value into the
// accumulator and resumes the loop; the rest let the first trap end the
// call.
func genLoopProgram(seed int64) (*classfile.Method, error) {
	return genLoopProgramIters(seed, 3, 60)
}

// genOSRLoopProgram is genLoopProgram with long iteration counts (80 to
// 379) for a loop that runs in a single invocation: its one activation
// is an interpreted frame on the lowering for its whole length, with the
// fused loop and the batches carrying many iterations and the deferred
// accounting. Its bodies always have the handler, so a trap cannot end
// the loop early.
func genOSRLoopProgram(seed int64) (*classfile.Method, error) {
	return genLoopProgramIters(seed, 80, 300)
}

// genLoopProgramIters is the shared generator; iters is drawn from
// [minIters, minIters+span), and long loops (minIters of 64 or more)
// always get the handler.
func genLoopProgramIters(seed int64, minIters, span int) (*classfile.Method, error) {
	rng := rand.New(rand.NewSource(seed))
	a := bytecode.NewAssembler()
	// locals: 0 = x (arg), 1 = i, 2 = acc, 3 = array handle
	iters := int64(minIters + rng.Intn(span))
	a.Const(iters)
	a.Store(1)
	a.Const(int64(rng.Intn(100)))
	a.Store(2)
	arrLen := int64(rng.Intn(9))
	switch rng.Intn(8) {
	case 0: // null
		a.Const(0)
	case 1: // a handle no array has
		a.Const(1 << 20)
	default:
		a.Const(arrLen)
		a.NewArray()
	}
	a.Store(3)
	catch := minIters >= 64 || rng.Intn(2) == 0
	// index pushes an array index: i mod a drawn modulus (0 traps), the
	// low bits of acc, or i itself.
	index := func() {
		switch rng.Intn(3) {
		case 0:
			a.Load(1)
			a.Const(int64(rng.Intn(int(arrLen) + 2)))
			a.Rem()
		case 1:
			a.Load(2)
			a.Const(7)
			a.And()
		default:
			a.Load(1)
		}
	}
	top := a.NewLabel()
	end := a.NewLabel()
	cont := a.NewLabel()
	a.Bind(top)
	a.Load(1)
	a.Ifle(end)
	bodyStart := a.Offset()
	body := 1 + rng.Intn(4)
	for k := 0; k < body; k++ {
		switch rng.Intn(10) {
		case 0: // acc = acc*m + c
			a.Load(2)
			a.Const(int64(rng.Intn(31) + 3))
			a.Mul()
			a.Const(int64(rng.Intn(17)))
			a.Add()
			a.Store(2)
		case 1: // acc ^= x << k
			a.Load(2)
			a.Load(0)
			a.Const(int64(rng.Intn(8))) // shift count
			a.Shl()
			a.Xor()
			a.Store(2)
		case 2: // acc = acc / (i+1) — divisor strictly positive
			a.Load(2)
			a.Load(1)
			a.Const(1)
			a.Add()
			a.Div()
			a.Store(2)
		case 3: // if acc < 0 { acc = -acc }
			neg := a.NewLabel()
			a.Load(2)
			a.Ifge(neg)
			a.Load(2)
			a.Neg()
			a.Store(2)
			a.Bind(neg)
		case 4: // x = x + acc&7
			a.Load(0)
			a.Load(2)
			a.Const(7)
			a.And()
			a.Add()
			a.Store(0)
		case 5: // acc = acc - x
			a.Load(2)
			a.Load(0)
			a.Sub()
			a.Store(2)
		case 6: // arr[index] = acc
			a.Load(3)
			index()
			a.Load(2)
			a.AStore()
		case 7: // acc += arr[index]
			a.Load(2)
			a.Load(3)
			index()
			a.ALoad()
			a.Add()
			a.Store(2)
		case 8: // acc ^= len(arr)
			a.Load(2)
			a.Load(3)
			a.ArrayLen()
			a.Xor()
			a.Store(2)
		case 9: // acc = acc / (i-k) or acc % (i-k): zero once i == k
			a.Load(2)
			a.Load(1)
			a.Const(int64(1 + rng.Intn(int(iters))))
			a.Sub()
			if rng.Intn(2) == 0 {
				a.Div()
			} else {
				a.Rem()
			}
			a.Store(2)
		}
	}
	bodyEnd := a.Offset()
	a.Bind(cont)
	a.Inc(1, -1)
	a.Goto(top)
	a.Bind(end)
	a.Load(2)
	a.Load(0)
	a.Add()
	a.IReturn()
	var handlers []classfile.ExceptionEntry
	if catch && bodyEnd > bodyStart {
		// acc ^= thrown; resume at the loop step.
		handler := a.Offset()
		a.EnterHandler()
		a.Load(2)
		a.Xor()
		a.Store(2)
		a.Goto(cont)
		handlers = []classfile.ExceptionEntry{{StartPC: bodyStart, EndPC: bodyEnd, HandlerPC: handler}}
	}
	return a.FinishMethod("loop", "(J)J", classfile.AccPublic|classfile.AccStatic, 4, handlers)
}

// TestJITDifferentialLoopPrograms extends the property to branchy,
// multi-block methods with loops, division, negation and array accesses
// that trap mid-loop, caught or not, under the default quantum and the
// hostile quantum 7.
func TestJITDifferentialLoopPrograms(t *testing.T) {
	f := func(seed int64) bool {
		m, err := genLoopProgram(seed)
		if err != nil {
			t.Logf("seed %d: assembly failed: %v", seed, err)
			return false
		}
		if err := bytecode.Verify(m); err != nil {
			t.Logf("seed %d: verification failed: %v", seed, err)
			return false
		}
		cls := &classfile.Class{Name: "p/Loop", Methods: []*classfile.Method{m}}
		for _, q := range []int{0, 7} {
			jv := runEnginesQuantum(t, q, cls, "loop", 6, int64(seed%97))
			if jv.TierStats().CompiledFrames == 0 {
				t.Logf("seed %d quantum %d: no compiled frames executed", seed, q)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestJITDifferentialOSRPrograms extends the loop property to long
// loops run in their one and only invocation: observables stay
// byte-identical to both interpreters.
func TestJITDifferentialOSRPrograms(t *testing.T) {
	f := func(seed int64) bool {
		m, err := genOSRLoopProgram(seed)
		if err != nil {
			t.Logf("seed %d: assembly failed: %v", seed, err)
			return false
		}
		if err := bytecode.Verify(m); err != nil {
			t.Logf("seed %d: verification failed: %v", seed, err)
			return false
		}
		cls := &classfile.Class{Name: "p/OSR", Methods: []*classfile.Method{m}}
		runEngines(t, cls, "loop", 1, int64(seed%97))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestJITStoreForwardedMulNotFused is the regression test for a
// miscompile: in `load a; const 31; mul; store x; load x; const 7; add`,
// store forwarding retargets the multiply's destination to local x, and
// the mul-add peephole must NOT then fuse the following add into it —
// that would corrupt x (a*31+7 instead of a*31) and leave the add's
// result slot unwritten. The value and the stored local must both match
// the interpreter's.
func TestJITStoreForwardedMulNotFused(t *testing.T) {
	a := bytecode.NewAssembler()
	// locals: 0 = a, 1 = x
	a.Load(0)
	a.Const(31)
	a.Mul()
	a.Store(1) // x = a*31 (store-forwarded into the multiply)
	a.Load(1)
	a.Const(7)
	a.Add() // must not fuse into the forwarded multiply
	a.Load(1)
	a.Shl() // fold x back in so a wrong local is visible too
	a.IReturn()
	m, err := a.FinishMethod("probe", "(J)J", classfile.AccPublic|classfile.AccStatic, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := bytecode.Verify(m); err != nil {
		t.Fatal(err)
	}
	cls := mustClass(t, "p/Fwd", m)
	jv := runEngines(t, cls, "probe", 6, 5)
	th := jv.NewDetachedThread("check")
	got, err := th.InvokeStatic("p/Fwd", "probe", "(J)J", 5)
	if err != nil {
		t.Fatal(err)
	}
	// a=5: x = 155, result = (155+7) << (155&63) == 162 << 27.
	if want := int64(162) << 27; got != want {
		t.Fatalf("probe(5) = %d, want %d", got, want)
	}
}

// TestJITDivByZeroThroughHandler pins exception dispatch from a compiled
// effect into a handler block, and the uncaught path's error identity.
func TestJITDivByZeroThroughHandler(t *testing.T) {
	a := bytecode.NewAssembler()
	// try { return x / y } catch { return caught + 100 }
	a.Load(0)
	a.Load(1)
	a.Div()
	a.IReturn()
	handler := a.Offset()
	a.EnterHandler()
	a.Const(100)
	a.Add()
	a.IReturn()
	m, err := a.FinishMethod("safediv", "(JJ)J", classfile.AccPublic|classfile.AccStatic, 2,
		[]classfile.ExceptionEntry{{StartPC: 0, EndPC: handler, HandlerPC: handler}})
	if err != nil {
		t.Fatal(err)
	}
	cls := mustClass(t, "p/Div", m)
	runEngines(t, cls, "safediv", 6, 84, 2)
	runEngines(t, cls, "safediv", 6, 84, 0) // thrown, caught by handler

	// Uncaught: no handler entry.
	b := bytecode.NewAssembler()
	b.Load(0)
	b.Load(1)
	b.Div()
	b.IReturn()
	m2, err := b.FinishMethod("rawdiv", "(JJ)J", classfile.AccPublic|classfile.AccStatic, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	runEngines(t, mustClass(t, "p/Div2", m2), "rawdiv", 6, 84, 0)
}

// TestJITPromotionMidLoop drives a caller loop across the compile
// threshold: early iterations run the callee interpreted, later ones as
// promoted frames, within one VM run — and the run's observables match
// the interpreter exactly (runEngines asserts it). The tier stats prove
// the promotion actually happened mid-run.
func TestJITPromotionMidLoop(t *testing.T) {
	// callee: static long kernel(long x) { return x*31 + 7; }
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
	// caller: loop 40 times calling kernel.
	c := bytecode.NewAssembler()
	c.Const(40)
	c.Store(1)
	top := c.NewLabel()
	end := c.NewLabel()
	c.Bind(top)
	c.Load(1)
	c.Ifle(end)
	c.Load(0)
	c.InvokeStatic("p/Mid", "kernel", "(J)J")
	c.Store(0)
	c.Inc(1, -1)
	c.Goto(top)
	c.Bind(end)
	c.Load(0)
	c.IReturn()
	caller, err := c.FinishMethod("drive", "(J)J", classfile.AccPublic|classfile.AccStatic, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	cls := mustClass(t, "p/Mid", caller, kernel)
	jv := runEngines(t, cls, "drive", 2, 5)
	st := jv.TierStats()
	if st.MethodsCompiled == 0 || st.CompiledFrames == 0 {
		t.Fatalf("expected mid-loop promotion, tier stats = %+v", st)
	}
	c2, _ := jv.Class("p/Mid")
	if c2.Method("kernel", "(J)J").invocations < 40 {
		t.Fatalf("kernel invocations = %d", c2.Method("kernel", "(J)J").invocations)
	}
}

// TestJITYieldBoundariesMatchInterp pins the quantum discipline: with a
// tiny quantum, a long compiled loop must yield on exactly the same
// instruction boundaries as the interpreter. Divergence would surface as
// different budget hand-backs and, in multi-threaded runs, different
// interleavings; here it surfaces directly in the cycle/instruction
// traces runEngines compares after every call.
func TestJITYieldBoundariesMatchInterp(t *testing.T) {
	m, err := genLoopProgram(7)
	if err != nil {
		t.Fatal(err)
	}
	cls := &classfile.Class{Name: "p/Q", Methods: []*classfile.Method{m}}
	type snap struct {
		cycles uint64
		instr  uint64
	}
	run := func(tier jit.Engine, force bool) []snap {
		opts := DefaultOptions()
		opts.Quantum = 7 // hostile: boundaries land mid-chunk constantly
		opts.CompileThreshold = 1
		opts.Tier = tier
		opts.ForceInstrumentedLoop = force
		v := New(opts)
		if err := v.LoadClasses([]*classfile.Class{cls.Clone()}); err != nil {
			t.Fatal(err)
		}
		th := v.NewDetachedThread("q")
		var snaps []snap
		for i := 0; i < 4; i++ {
			if _, err := th.InvokeStatic("p/Q", "loop", "(J)J", 11); err != nil {
				t.Fatal(err)
			}
			snaps = append(snaps, snap{th.Cycles(), th.InstructionsExecuted()})
		}
		return snaps
	}
	inst := run(jit.EngineInterp, true)
	fast := run(jit.EngineInterp, false)
	jitted := run(jit.EngineJIT, false)
	for i := range inst {
		if fast[i] != inst[i] || jitted[i] != inst[i] {
			t.Fatalf("call %d: inst %+v fast %+v jit %+v", i, inst[i], fast[i], jitted[i])
		}
	}
}

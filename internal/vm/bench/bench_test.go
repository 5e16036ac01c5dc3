// Package bench holds black-box micro-benchmarks for the interpreter fast
// path: arithmetic dispatch, call machinery, static-field traffic,
// exception unwinding, and the fast-vs-instrumented loop delta. Each
// isolates one mechanism for profiling; whole campaigns are measured by
// the cpubench benchmark.
package bench

import (
	"testing"

	"repro/internal/bytecode"
	"repro/internal/classfile"
	"repro/internal/vm"
)

// loopClass assembles sum(n): a tight arithmetic loop dominated by a
// single straight-line run plus its back-edge — the block executor's
// fused-loop best case.
func loopClass(b *testing.B) *classfile.Class {
	b.Helper()
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
		b.Fatal(err)
	}
	return &classfile.Class{Name: "b/Loop", Methods: []*classfile.Method{m}}
}

func newVM(b *testing.B, cls *classfile.Class, opts vm.Options) *vm.Thread {
	b.Helper()
	v := vm.New(opts)
	if err := v.LoadClasses([]*classfile.Class{cls}); err != nil {
		b.Fatal(err)
	}
	return v.NewDetachedThread("bench")
}

func noJIT() vm.Options {
	o := vm.DefaultOptions()
	o.JITThreshold = 1 << 62
	return o
}

// BenchmarkArithLoopFast: batched straight-line dispatch, no observers.
func BenchmarkArithLoopFast(b *testing.B) {
	t := newVM(b, loopClass(b), noJIT())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := t.InvokeStatic("b/Loop", "sum", "(J)J", 1000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkArithLoopInstrumented: the same loop forced onto the fully
// instrumented dispatch loop; the gap to BenchmarkArithLoopFast is the
// dual-loop design's win.
func BenchmarkArithLoopInstrumented(b *testing.B) {
	opts := noJIT()
	opts.ForceInstrumentedLoop = true
	t := newVM(b, loopClass(b), opts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := t.InvokeStatic("b/Loop", "sum", "(J)J", 1000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCallTree measures pooled-frame call machinery: rec(n) recurses
// twice per level, so one invocation is dominated by invoke/frame setup.
func BenchmarkCallTree(b *testing.B) {
	a := bytecode.NewAssembler()
	leaf := a.NewLabel()
	a.Load(0)
	a.Ifle(leaf)
	a.Load(0)
	a.Const(1)
	a.Sub()
	a.InvokeStatic("b/Call", "rec", "(J)J")
	a.Load(0)
	a.Const(1)
	a.Sub()
	a.InvokeStatic("b/Call", "rec", "(J)J")
	a.Add()
	a.IReturn()
	a.Bind(leaf)
	a.Const(1)
	a.IReturn()
	m, err := a.FinishMethod("rec", "(J)J", classfile.AccStatic, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	cls := &classfile.Class{Name: "b/Call", Methods: []*classfile.Method{m}}
	t := newVM(b, cls, noJIT())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := t.InvokeStatic("b/Call", "rec", "(J)J", 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStaticFields measures the link-time static-slot cache: a loop
// whose body is getstatic/putstatic traffic.
func BenchmarkStaticFields(b *testing.B) {
	a := bytecode.NewAssembler()
	top := a.NewLabel()
	end := a.NewLabel()
	a.Bind(top)
	a.Load(0)
	a.Ifle(end)
	a.GetStatic("b/S", "acc")
	a.Const(3)
	a.Add()
	a.PutStatic("b/S", "acc")
	a.Inc(0, -1)
	a.Goto(top)
	a.Bind(end)
	a.GetStatic("b/S", "acc")
	a.IReturn()
	m, err := a.FinishMethod("spin", "(J)J", classfile.AccStatic, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	cls := &classfile.Class{
		Name:    "b/S",
		Fields:  []*classfile.Field{{Name: "acc", Flags: classfile.AccStatic}},
		Methods: []*classfile.Method{m},
	}
	t := newVM(b, cls, noJIT())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := t.InvokeStatic("b/S", "spin", "(J)J", 500); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkThrowCatch measures the O(1) handler lookup on the unwind
// path: every iteration throws and lands in a handler.
func BenchmarkThrowCatch(b *testing.B) {
	a := bytecode.NewAssembler()
	start := a.Offset()
	a.Load(0)
	a.Throw()
	end := a.Offset()
	a.EnterHandler()
	a.Const(1)
	a.Add()
	a.IReturn()
	code, consts, refs, maxStack, err := a.Finish()
	if err != nil {
		b.Fatal(err)
	}
	m := &classfile.Method{
		Name: "toss", Desc: "(J)J", Flags: classfile.AccStatic,
		MaxStack: maxStack + 1, MaxLocals: 1,
		Code: code, Consts: consts, Refs: refs,
		Handlers: []classfile.ExceptionEntry{{StartPC: start, EndPC: end, HandlerPC: end}},
	}
	if err := bytecode.Verify(m); err != nil {
		b.Fatal(err)
	}
	cls := &classfile.Class{Name: "b/T", Methods: []*classfile.Method{m}}
	t := newVM(b, cls, noJIT())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := t.InvokeStatic("b/T", "toss", "(J)J", int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if got != int64(i)+1 {
			b.Fatalf("toss(%d) = %d", i, got)
		}
	}
}

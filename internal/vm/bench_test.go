package vm

import (
	"testing"

	"repro/internal/bytecode"
	"repro/internal/classfile"
	"repro/internal/jit"
)

// benchVM builds a VM with a hot arithmetic loop for interpreter-speed
// measurements.
func benchVM(b *testing.B, jit bool) *VM {
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
	m, err := a.FinishMethod("loop", "(I)I", classfile.AccStatic, 2, nil)
	if err != nil {
		b.Fatal(err)
	}
	opts := DefaultOptions()
	if !jit {
		opts.JITThreshold = 1 << 62
	}
	v := New(opts)
	cls := &classfile.Class{Name: "b/B", Methods: []*classfile.Method{m}}
	if err := v.LoadClasses([]*classfile.Class{cls}); err != nil {
		b.Fatal(err)
	}
	return v
}

// BenchmarkInterpreterLoop measures raw interpreter dispatch speed.
func BenchmarkInterpreterLoop(b *testing.B) {
	v := benchVM(b, false)
	t := v.NewDetachedThread("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := t.InvokeStatic("b/B", "loop", "(I)I", 1000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompiledLoop is BenchmarkInterpreterLoop on the template tier:
// the same workload with the method promoted to a compiled trace unit.
// The ratio to BenchmarkInterpreterLoop is the tier's dispatch speedup.
func BenchmarkCompiledLoop(b *testing.B) {
	v := benchVM(b, false)
	v.opts.Tier = jit.EngineJIT
	v.opts.CompileThreshold = 1
	t := v.NewDetachedThread("bench")
	// Warm: promote before timing.
	if _, err := t.InvokeStatic("b/B", "loop", "(I)I", 1000); err != nil {
		b.Fatal(err)
	}
	if v.TierStats().MethodsCompiled == 0 {
		b.Fatal("loop method was not promoted")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := t.InvokeStatic("b/B", "loop", "(I)I", 1000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInvokeOverhead measures per-invocation cost of the method call
// machinery.
func BenchmarkInvokeOverhead(b *testing.B) {
	v := benchVM(b, false)
	t := v.NewDetachedThread("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := t.InvokeStatic("b/B", "loop", "(I)I", 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNativeCall measures the J2N dispatch path.
func BenchmarkNativeCall(b *testing.B) {
	v := New(DefaultOptions())
	cls := &classfile.Class{
		Name: "b/N",
		Methods: []*classfile.Method{{
			Name: "nat", Desc: "()I",
			Flags: classfile.AccStatic | classfile.AccNative,
		}},
	}
	if err := v.LoadClasses([]*classfile.Class{cls}); err != nil {
		b.Fatal(err)
	}
	if err := v.RegisterNative("b/N", "nat", "()I", func(env Env, args []int64) (int64, error) {
		return 1, nil
	}); err != nil {
		b.Fatal(err)
	}
	t := v.NewDetachedThread("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := t.InvokeStatic("b/N", "nat", "()I"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeapArrayOps measures heap array access.
func BenchmarkHeapArrayOps(b *testing.B) {
	h := NewHeap()
	handle, err := h.NewArray(64)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := int64(i & 63)
		if err := h.Store(handle, idx, int64(i)); err != nil {
			b.Fatal(err)
		}
		if _, err := h.Load(handle, idx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGCChurn measures the generational heap under constant
// collection pressure: the retain kernel's rotating live window forces
// minor collections, tenure promotions and majors (the same geometry as
// TestGCCrossEngineIdentity). The ratio to BenchmarkGCChurnLegacy is the
// host-side cost of the collection machinery itself.
func BenchmarkGCChurn(b *testing.B) {
	opts := DefaultOptions()
	opts.Heap = HeapConfig{NurseryWords: 96, TenuredWords: 256, TenureAge: 2}
	benchChurn(b, opts)
}

// BenchmarkGCChurnLegacy is the same workload on the unbounded legacy
// heap — the baseline the GC overhead is measured against.
func BenchmarkGCChurnLegacy(b *testing.B) {
	benchChurn(b, DefaultOptions())
}

func benchChurn(b *testing.B, opts Options) {
	a := bytecode.NewAssembler()
	// locals: 0=x, 1=k, 2=holder, 3=tmp — the retain kernel shape.
	a.Const(8)
	a.NewArray()
	a.Store(2)
	a.Const(64)
	a.Store(1)
	top := a.NewLabel()
	end := a.NewLabel()
	a.Bind(top)
	a.Load(1)
	a.Ifle(end)
	a.Const(16)
	a.NewArray()
	a.Store(3)
	a.Load(2)
	a.Load(1)
	a.Const(8)
	a.Rem()
	a.Load(3)
	a.AStore()
	a.Inc(1, -1)
	a.Goto(top)
	a.Bind(end)
	a.Load(0)
	a.IReturn()
	m, err := a.FinishMethod("churn", "(J)J", classfile.AccPublic|classfile.AccStatic, 4, nil)
	if err != nil {
		b.Fatal(err)
	}
	v := New(opts)
	cls := &classfile.Class{Name: "b/GC", Methods: []*classfile.Method{m}}
	if err := v.LoadClasses([]*classfile.Class{cls}); err != nil {
		b.Fatal(err)
	}
	t := v.NewDetachedThread("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := t.InvokeStatic("b/GC", "churn", "(J)J", int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeapLifecycle measures one cell's heap host life — made,
// 20,000 small allocations, released — on recycled host memory: after
// the first iteration every heap adopts the record the previous one
// parked.
func BenchmarkHeapLifecycle(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		heapLifecycle(20000)
	}
}

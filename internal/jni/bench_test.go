package jni

import (
	"testing"

	"repro/internal/bytecode"
	"repro/internal/classfile"
	"repro/internal/vm"
)

func benchEnv(b *testing.B, intercepted bool) *Env {
	b.Helper()
	a := bytecode.NewAssembler()
	a.Load(0)
	a.IReturn()
	m, err := a.FinishMethod("id", "(I)I", classfile.AccStatic, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	v := vm.New(vm.DefaultOptions())
	cls := &classfile.Class{Name: "b/J", Methods: []*classfile.Method{m}}
	if err := v.LoadClasses([]*classfile.Class{cls}); err != nil {
		b.Fatal(err)
	}
	j := Attach(v)
	if intercepted {
		table := j.Table().Snapshot()
		for i, orig := range table {
			table[i] = func(env *Env, call *Call) (int64, error) {
				return orig(env, call)
			}
		}
		if err := j.Table().Replace(table); err != nil {
			b.Fatal(err)
		}
	}
	th := v.NewDetachedThread("bench")
	return th.Env().(*Env)
}

// BenchmarkJNIDispatch measures a CallStatic through the pristine table.
func BenchmarkJNIDispatch(b *testing.B) {
	env := benchEnv(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.CallStatic("b/J", "id", "(I)I", 7); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJNIDispatchIntercepted measures the same call with an IPA-style
// wrapper installed around every function-table entry.
func BenchmarkJNIDispatchIntercepted(b *testing.B) {
	env := benchEnv(b, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.CallStatic("b/J", "id", "(I)I", 7); err != nil {
			b.Fatal(err)
		}
	}
}

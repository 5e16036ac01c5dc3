package ipa

import (
	"testing"

	"repro/internal/bytecode"
	"repro/internal/classfile"
	"repro/internal/core"
	"repro/internal/vm"
)

// TestUpcallThroughWrappedTableAllocatesNothing: a JNI upcall through
// IPA's wrapped function table recycles its Call record and picks a
// prebuilt function name, so in steady state it allocates nothing — the
// per-upcall record and name were most of the interp grid's allocation.
func TestUpcallThroughWrappedTableAllocatesNothing(t *testing.T) {
	a := bytecode.NewAssembler()
	a.InvokeStatic("al/Main", "probe", "()J")
	a.IReturn()
	mainM, err := a.FinishMethod("main", "()J", classfile.AccStatic, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	id := bytecode.NewAssembler()
	id.Load(0)
	id.IReturn()
	idM, err := id.FinishMethod("id", "(J)J", classfile.AccStatic, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	cls := &classfile.Class{
		Name: "al/Main",
		Methods: []*classfile.Method{
			mainM, idM,
			{Name: "probe", Desc: "()J", Flags: classfile.AccStatic | classfile.AccNative},
		},
	}
	var allocs float64
	lib := vm.NativeLibrary{
		Name: "al-native",
		Funcs: map[string]vm.NativeFunc{
			"al/Main.probe()J": func(env vm.Env, _ []int64) (int64, error) {
				args := []int64{7}
				var got int64
				var err error
				allocs = testing.AllocsPerRun(200, func() {
					got, err = env.CallStatic("al/Main", "id", "(J)J", args...)
				})
				if err == nil && got != 7 {
					t.Errorf("id(7) = %d", got)
				}
				return got, err
			},
		},
	}
	prog := &core.Program{
		Name:      "al",
		Classes:   []*classfile.Class{cls},
		Libraries: []vm.NativeLibrary{lib},
		MainClass: "al/Main", MainName: "main", MainDesc: "()J",
	}
	agent := New()
	if _, err := core.Run(prog, agent, vm.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if agent.Report().JNICalls < 200 {
		t.Fatalf("JNI calls = %d: the upcalls bypassed IPA's wrappers", agent.Report().JNICalls)
	}
	if allocs != 0 {
		t.Fatalf("upcall through the wrapped table allocates %.1f times, want 0", allocs)
	}
}

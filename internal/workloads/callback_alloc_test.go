package workloads

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/vm"
)

// TestNativeCallbackAllocatesNothing: a generated native that calls back
// into Java makes its callbacks through vm.Env's fixed-arity CallStatic1,
// so a native invocation with CallbacksPerNative callbacks allocates
// nothing in steady state — through the jni layer's Env (core.Run) and
// through the VM's plain one (no jni layer attached).
func TestNativeCallbackAllocatesNothing(t *testing.T) {
	const per = 4
	w := Workload{
		Name: "cb-alloc", ClassName: "t/CBAlloc", OuterIters: 2,
		Phases: []Phase{{Kind: PhaseNative, Calls: 1, Work: 3, JNIEvery: 1, CallbacksPerNative: per, CallbackWork: 2}},
	}
	for _, withJNI := range []bool{true, false} {
		prog, err := BuildWorkload(w)
		if err != nil {
			t.Fatal(err)
		}
		measured := false
		allocs := -1.0
		funcs := prog.Libraries[0].Funcs
		for sym, fn := range funcs {
			if !strings.Contains(sym, ".nwork(") {
				continue
			}
			funcs[sym] = func(env vm.Env, args []int64) (int64, error) {
				if !measured {
					measured = true
					allocs = testing.AllocsPerRun(100, func() {
						if _, err := fn(env, args); err != nil {
							t.Error(err)
						}
					})
				}
				return fn(env, args)
			}
		}
		if withJNI {
			res, err := core.Run(prog, nil, vm.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if res.Truth.JNICalls < 100*per {
				t.Fatalf("JNI calls = %d: the native made no callbacks", res.Truth.JNICalls)
			}
		} else {
			v := vm.New(vm.DefaultOptions())
			if err := v.LoadClasses(prog.Classes); err != nil {
				t.Fatal(err)
			}
			if err := v.LoadLibrary(prog.Libraries[0]); err != nil {
				t.Fatal(err)
			}
			if _, err := v.Run(prog.MainClass, prog.MainName, prog.MainDesc, prog.Args...); err != nil {
				t.Fatal(err)
			}
		}
		if !measured {
			t.Fatal("the generated native never ran")
		}
		if allocs != 0 {
			t.Errorf("jni=%v: a native with %d callbacks allocates %.1f times per invocation, want 0", withJNI, per, allocs)
		}
	}
}

package ipa

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/classfile"
	"repro/internal/core"
	"repro/internal/instrument"
	"repro/internal/vm"
)

// twoNativesProgram builds a program with two native methods of very
// different costs, called different numbers of times:
//
//	cheap()V x 30 at ~50 cycles, dear()V x 5 at ~5000 cycles.
func twoNativesProgram(t *testing.T) *core.Program {
	t.Helper()
	a := bytecode.NewAssembler()
	// 30 cheap calls.
	a.Const(30)
	a.Store(0)
	top1 := a.NewLabel()
	end1 := a.NewLabel()
	a.Bind(top1)
	a.Load(0)
	a.Ifle(end1)
	a.InvokeStatic("pm/Main", "cheap", "()V")
	a.Inc(0, -1)
	a.Goto(top1)
	a.Bind(end1)
	// 5 dear calls.
	a.Const(5)
	a.Store(0)
	top2 := a.NewLabel()
	end2 := a.NewLabel()
	a.Bind(top2)
	a.Load(0)
	a.Ifle(end2)
	a.InvokeStatic("pm/Main", "dear", "()V")
	a.Inc(0, -1)
	a.Goto(top2)
	a.Bind(end2)
	a.Const(0)
	a.IReturn()
	mainM, err := a.FinishMethod("main", "()J", classfile.AccStatic, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	natFlags := classfile.AccStatic | classfile.AccNative
	cls := &classfile.Class{
		Name: "pm/Main",
		Methods: []*classfile.Method{
			mainM,
			{Name: "cheap", Desc: "()V", Flags: natFlags},
			{Name: "dear", Desc: "()V", Flags: natFlags},
		},
	}
	lib := vm.NativeLibrary{
		Name: "pm-native",
		Funcs: map[string]vm.NativeFunc{
			"pm/Main.cheap()V": func(env vm.Env, args []int64) (int64, error) {
				env.Work(50)
				return 0, nil
			},
			"pm/Main.dear()V": func(env vm.Env, args []int64) (int64, error) {
				env.Work(5000)
				return 0, nil
			},
		},
	}
	return &core.Program{
		Name:      "permethod",
		Classes:   []*classfile.Class{cls},
		Libraries: []vm.NativeLibrary{lib},
		MainClass: "pm/Main", MainName: "main", MainDesc: "()J",
	}
}

func TestPerMethodBreakdown(t *testing.T) {
	agent := NewWithConfig(Config{Compensate: true, PerMethod: true})
	_, err := core.Run(twoNativesProgram(t), agent, vm.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	times := agent.MethodTimes()
	if len(times) != 2 {
		t.Fatalf("method rows = %d, want 2: %+v", len(times), times)
	}
	// dear is hotter despite fewer calls; rows are sorted by cycles.
	if times[0].Name != "pm/Main.dear()V" {
		t.Fatalf("hottest = %+v", times[0])
	}
	dear, cheap := times[0], times[1]
	if dear.Calls != 5 || cheap.Calls != 30 {
		t.Fatalf("calls: dear=%d cheap=%d, want 5/30", dear.Calls, cheap.Calls)
	}
	// Attribution accuracy: each dear call is ~5000+overhead cycles.
	if dear.Cycles < 5*5000 || dear.Cycles > 5*5300 {
		t.Fatalf("dear cycles = %d, want about 25000", dear.Cycles)
	}
	if cheap.Cycles < 30*50 || cheap.Cycles > 30*120 {
		t.Fatalf("cheap cycles = %d, want about 1500-3600", cheap.Cycles)
	}
}

func TestPerMethodSumMatchesTotalNative(t *testing.T) {
	agent := NewWithConfig(Config{Compensate: true, PerMethod: true})
	_, err := core.Run(twoNativesProgram(t), agent, vm.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var sum uint64
	for _, mt := range agent.MethodTimes() {
		sum += mt.Cycles
	}
	total := agent.Report().TotalNativeCycles
	// All native time in this program flows through wrapped methods,
	// except thread launch/teardown (the launcher's JNI bracket and the
	// ThreadEnd event dispatch land on the native side with no method on
	// the stack). Allow that fixed per-thread sliver.
	if sum > total {
		t.Fatalf("per-method sum %d exceeds total native %d", sum, total)
	}
	const perThreadSliver = 2600
	if sum+perThreadSliver < total {
		t.Fatalf("per-method sum %d + sliver misses native total %d", sum, total)
	}
}

func TestPerMethodWithJNICallbacks(t *testing.T) {
	// A native method that calls back into Java: the callback's bytecode
	// time must NOT be attributed to the native method.
	a := bytecode.NewAssembler()
	a.InvokeStatic("cb/Main", "outer", "()V")
	a.Return()
	mainM, err := a.FinishMethod("main", "()V", classfile.AccStatic, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	hb := bytecode.NewAssembler()
	hb.Const(400)
	hb.Store(0)
	top := hb.NewLabel()
	end := hb.NewLabel()
	hb.Bind(top)
	hb.Load(0)
	hb.Ifle(end)
	hb.Inc(0, -1)
	hb.Goto(top)
	hb.Bind(end)
	hb.Return()
	heavyJava, err := hb.FinishMethod("heavyJava", "()V", classfile.AccStatic, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	cls := &classfile.Class{
		Name: "cb/Main",
		Methods: []*classfile.Method{
			mainM, heavyJava,
			{Name: "outer", Desc: "()V", Flags: classfile.AccStatic | classfile.AccNative},
		},
	}
	lib := vm.NativeLibrary{
		Name: "cb-native",
		Funcs: map[string]vm.NativeFunc{
			"cb/Main.outer()V": func(env vm.Env, args []int64) (int64, error) {
				env.Work(100)
				if _, err := env.CallStatic("cb/Main", "heavyJava", "()V"); err != nil {
					return 0, err
				}
				env.Work(100)
				return 0, nil
			},
		},
	}
	prog := &core.Program{
		Name:      "cb",
		Classes:   []*classfile.Class{cls},
		Libraries: []vm.NativeLibrary{lib},
		MainClass: "cb/Main", MainName: "main", MainDesc: "()V",
	}
	agent := NewWithConfig(Config{Compensate: true, PerMethod: true})
	if _, err := core.Run(prog, agent, vm.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	times := agent.MethodTimes()
	if len(times) != 1 {
		t.Fatalf("rows = %+v", times)
	}
	outer := times[0]
	// outer's own native work is ~200 cycles + machinery; the ~4000-cycle
	// Java callback must be excluded.
	if outer.Cycles > 600 {
		t.Fatalf("outer cycles = %d; callback bytecode leaked into native attribution", outer.Cycles)
	}
	if outer.Cycles < 200 {
		t.Fatalf("outer cycles = %d; own native work under-attributed", outer.Cycles)
	}
}

func TestPerMethodOffReturnsNil(t *testing.T) {
	agent := New()
	if _, err := core.Run(twoNativesProgram(t), agent, vm.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if agent.MethodTimes() != nil {
		t.Fatal("MethodTimes non-nil without PerMethod")
	}
}

func TestPerMethodAggregateStatsStillCorrect(t *testing.T) {
	// PerMethod mode must not change the aggregate Table II counts.
	plain := New()
	if _, err := core.Run(twoNativesProgram(t), plain, vm.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	pm := NewWithConfig(Config{Compensate: true, PerMethod: true})
	if _, err := core.Run(twoNativesProgram(t), pm, vm.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if plain.Report().NativeMethodCalls != pm.Report().NativeMethodCalls {
		t.Fatalf("native calls differ: %d vs %d",
			plain.Report().NativeMethodCalls, pm.Report().NativeMethodCalls)
	}
	fp := plain.Report().NativeFraction()
	fm := pm.Report().NativeFraction()
	if fp == 0 || fm == 0 {
		t.Fatal("zero fractions")
	}
	diff := fp - fm
	if diff < -0.02 || diff > 0.02 {
		t.Fatalf("fractions diverge: plain %.4f permethod %.4f", fp, fm)
	}
}

// TestPerMethodNeverServedFromStore: after plain agents have stored the
// registry-free rewrite of a program, a PerMethod agent still rewrites
// it afresh — its wrappers call the method-identified signals with ids
// from its own registry, which match those of a second, fresh PerMethod
// agent — and its run attributes every native call.
func TestPerMethodNeverServedFromStore(t *testing.T) {
	prog := twoNativesProgram(t)
	plain, err := New().PrepareClasses(prog.Classes)
	if err != nil {
		t.Fatal(err)
	}
	again, err := New().PrepareClasses(prog.Classes)
	if err != nil {
		t.Fatal(err)
	}
	if plain[0] != again[0] {
		t.Fatal("two plain agents got two rewrites: the store is not in play")
	}
	var names [][]string
	for i := 0; i < 2; i++ {
		agent := NewWithConfig(Config{Compensate: true, PerMethod: true})
		out, err := agent.PrepareClasses(prog.Classes)
		if err != nil {
			t.Fatal(err)
		}
		if out[0] == plain[0] {
			t.Fatalf("agent %d: the PerMethod agent was served the stored plain rewrite", i)
		}
		text, err := bytecode.Disassemble(out[0].Method("cheap", "()V"))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(text, instrument.J2NBeginM) {
			t.Fatalf("agent %d: the wrapper does not call %s:\n%s", i, instrument.J2NBeginM, text)
		}
		names = append(names, agent.registry.Names())
		if _, err := core.Run(prog, agent, vm.DefaultOptions()); err != nil {
			t.Fatal(err)
		}
		// The wrappers' ids resolve through this agent's registry to
		// the methods that made the calls.
		times := agent.MethodTimes()
		if len(times) != 2 || times[0].Name != "pm/Main.dear()V" || times[0].Calls != 5 ||
			times[1].Name != "pm/Main.cheap()V" || times[1].Calls != 30 {
			t.Fatalf("agent %d: method rows %+v, want dear x5 and cheap x30", i, times)
		}
	}
	if !reflect.DeepEqual(names[0], names[1]) || len(names[0]) != 2 {
		t.Fatalf("registry names %v and %v, want the same two", names[0], names[1])
	}
}

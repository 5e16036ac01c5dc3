package recorder

import (
	"testing"

	"repro/internal/bytecode"
	"repro/internal/classfile"
	"repro/internal/core"
	"repro/internal/jni"
	"repro/internal/jvmti"
	"repro/internal/vm"
)

// natWork is the native method's simulated work per call.
const natWork = 500

// twoMethodProgram: main calls helper three times; helper calls the
// native nat and adds one to its result.
func twoMethodProgram(t *testing.T) *core.Program {
	t.Helper()
	h := bytecode.NewAssembler()
	h.InvokeStatic("r/Main", "nat", "()J")
	h.Const(1)
	h.Add()
	h.IReturn()
	helper, err := h.FinishMethod("helper", "()J", classfile.AccStatic, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := bytecode.NewAssembler()
	m.Const(0)
	for i := 0; i < 3; i++ {
		m.InvokeStatic("r/Main", "helper", "()J")
		m.Add()
	}
	m.IReturn()
	main, err := m.FinishMethod("main", "()J", classfile.AccStatic, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	nat := &classfile.Method{Name: "nat", Desc: "()J", Flags: classfile.AccStatic | classfile.AccNative}
	return &core.Program{
		Name:    "two-method",
		Classes: []*classfile.Class{{Name: "r/Main", Methods: []*classfile.Method{main, helper, nat}}},
		Libraries: []vm.NativeLibrary{{
			Name: "r-nat",
			Funcs: map[string]vm.NativeFunc{
				"r/Main.nat()J": func(env vm.Env, args []int64) (int64, error) {
					env.Work(natWork)
					return 2, nil
				},
			},
		}},
		MainClass: "r/Main", MainName: "main", MainDesc: "()J",
	}
}

// TestRecorderTwoMethodProgram records main → helper → nat: exact call
// counts, native self time covering its work, self times that together
// with root time never exceed the run's cycles, and an event log cut at
// MaxEvents in call order.
func TestRecorderTwoMethodProgram(t *testing.T) {
	rec := New()
	rec.MaxEvents = 5
	res, err := core.Run(twoMethodProgram(t), rec, vm.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.MainResult != 9 {
		t.Fatalf("main result = %d, want 9", res.MainResult)
	}
	got := map[string]MethodStat{}
	var self uint64
	for _, s := range rec.Stats() {
		got[s.Name] = s
		self += s.SelfCycles
	}
	for name, calls := range map[string]uint64{"r/Main.main()J": 1, "r/Main.helper()J": 3, "r/Main.nat()J": 3} {
		if got[name].Calls != calls {
			t.Fatalf("%s calls = %d, want %d (stats %+v)", name, got[name].Calls, calls, got)
		}
	}
	nat := got["r/Main.nat()J"]
	if !nat.Native || got["r/Main.helper()J"].Native {
		t.Fatalf("native flags wrong: %+v", got)
	}
	if nat.SelfCycles < 3*natWork {
		t.Fatalf("nat self cycles = %d, want at least its work %d", nat.SelfCycles, 3*natWork)
	}
	if got["r/Main.helper()J"].SelfCycles == 0 || got["r/Main.main()J"].SelfCycles == 0 {
		t.Fatalf("bytecode self cycles missing: %+v", got)
	}
	if total := self + rec.RootCycles(); total > res.TotalCycles {
		t.Fatalf("self %d + root %d = %d, more than the run's %d cycles",
			self, rec.RootCycles(), total, res.TotalCycles)
	}
	rep := rec.Report()
	if rep.TotalNativeCycles != nat.SelfCycles || rep.NativeMethodCalls != 3 {
		t.Fatalf("report = %+v", rep)
	}
	want := []Event{
		{Enter: true, Method: "r/Main.main()J"},
		{Enter: true, Method: "r/Main.helper()J"},
		{Enter: true, Method: "r/Main.nat()J"},
		{Enter: false, Method: "r/Main.nat()J"},
		{Enter: false, Method: "r/Main.helper()J"},
	}
	ev := rec.Events()
	if len(ev) != rec.MaxEvents {
		t.Fatalf("events = %d, want the MaxEvents bound %d", len(ev), rec.MaxEvents)
	}
	for i := range want {
		if ev[i].Enter != want[i].Enter || ev[i].Method != want[i].Method {
			t.Fatalf("event %d = %+v, want %+v", i, ev[i], want[i])
		}
	}

	off := New()
	if _, err := core.Run(twoMethodProgram(t), off, vm.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if n := len(off.Events()); n != 0 {
		t.Fatalf("MaxEvents 0 logged %d events", n)
	}
}

// TestRecorderRootSpanAfterStackEmpties: when a thread's recorded stack
// empties and refills, root time is the span since it emptied, not the
// thread's absolute clock — which would count the first call's time
// twice.
func TestRecorderRootSpanAfterStackEmpties(t *testing.T) {
	prog := twoMethodProgram(t)
	v := vm.New(vm.DefaultOptions())
	rec := New()
	if err := rec.OnLoad(jvmti.NewEnv(v, jni.Attach(v))); err != nil {
		t.Fatal(err)
	}
	if err := v.LoadClasses(prog.Classes); err != nil {
		t.Fatal(err)
	}
	for _, lib := range prog.Libraries {
		if err := v.LoadLibrary(lib); err != nil {
			t.Fatal(err)
		}
	}
	th := v.NewDetachedThread("d")
	const before, between = 100, 40
	th.AdvanceCycles(before)
	if _, err := th.InvokeStatic("r/Main", "helper", "()J"); err != nil {
		t.Fatal(err)
	}
	th.AdvanceCycles(between)
	if _, err := th.InvokeStatic("r/Main", "helper", "()J"); err != nil {
		t.Fatal(err)
	}
	tc := rec.getContext(th)
	if len(tc.stack) != 0 {
		t.Fatalf("stack not empty after both calls: %+v", tc.stack)
	}
	var self uint64
	for _, s := range tc.methods {
		self += s.SelfCycles
	}
	// Every cycle is either some method's self time or root time, and
	// the root spans hold at least the time spent outside both calls.
	if self+tc.rootCycles != th.Cycles() {
		t.Fatalf("self %d + root %d != thread cycles %d", self, tc.rootCycles, th.Cycles())
	}
	if tc.rootCycles < before+between {
		t.Fatalf("root cycles = %d, want at least %d", tc.rootCycles, before+between)
	}
}

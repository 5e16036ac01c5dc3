package recorder

import (
	"reflect"
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
// with root time account for every cycle of the run, and the calling
// contexts main → helper → nat* in the chain view.
func TestRecorderTwoMethodProgram(t *testing.T) {
	rec := New()
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
	if total := self + rec.RootCycles(); total != res.TotalCycles {
		t.Fatalf("self %d + root %d = %d, want the run's %d cycles",
			self, rec.RootCycles(), total, res.TotalCycles)
	}
	rep := rec.Report()
	if rep.TotalNativeCycles != nat.SelfCycles || rep.NativeMethodCalls != 3 {
		t.Fatalf("report = %+v", rep)
	}
	chains := map[string]uint64{}
	for _, cs := range rec.Chains() {
		chains[cs.Chain] = cs.Calls
	}
	want := map[string]uint64{"main": 1, "main > helper": 3, "main > helper > nat*": 3}
	if !reflect.DeepEqual(chains, want) {
		t.Fatalf("chain calls = %v, want %v", chains, want)
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
	s := rec.state(th)
	if s.cursor != &s.root {
		t.Fatalf("cursor not at the root after both calls: %+v", s.cursor)
	}
	var self func(n *node) uint64
	self = func(n *node) uint64 {
		sum := n.self
		for _, c := range n.children {
			sum += self(c)
		}
		return sum
	}
	// Every cycle is either some context's self time or root time, and
	// the root spans hold at least the time spent outside both calls.
	if total := self(&s.root); total != th.Cycles() {
		t.Fatalf("self + root = %d != thread cycles %d", total, th.Cycles())
	}
	if s.root.self < before+between {
		t.Fatalf("root cycles = %d, want at least %d", s.root.self, before+between)
	}
}

package core

import (
	"strings"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/classfile"
	"repro/internal/vm"
)

// miniProgram builds a directly-usable Program: main calls one native
// method which does fixed native work.
func miniProgram(t *testing.T) *Program {
	t.Helper()
	a := bytecode.NewAssembler()
	a.InvokeStatic("m/Main", "nat", "()J")
	a.IReturn()
	mainM, err := a.FinishMethod("main", "()J", classfile.AccStatic, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	natDef := &classfile.Method{
		Name: "nat", Desc: "()J",
		Flags: classfile.AccStatic | classfile.AccNative,
	}
	return &Program{
		Name:    "mini",
		Classes: []*classfile.Class{{Name: "m/Main", Methods: []*classfile.Method{mainM, natDef}}},
		Libraries: []vm.NativeLibrary{{
			Name: "mini-nat",
			Funcs: map[string]vm.NativeFunc{
				"m/Main.nat()J": func(env vm.Env, args []int64) (int64, error) {
					env.Work(1000)
					return 99, nil
				},
			},
		}},
		MainClass: "m/Main", MainName: "main", MainDesc: "()J",
		Ops: 10,
	}
}

func TestRunWithoutAgent(t *testing.T) {
	res, err := Run(miniProgram(t), nil, vm.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.MainResult != 99 {
		t.Fatalf("main result = %d, want 99", res.MainResult)
	}
	if res.Report != nil {
		t.Fatal("report present without agent")
	}
	if res.Agent != "" {
		t.Fatalf("agent name = %q", res.Agent)
	}
	if res.TotalCycles == 0 || res.Threads != 1 {
		t.Fatalf("res = %+v", res)
	}
	if res.Truth.NativeCycles < 1000 {
		t.Fatalf("truth native = %d", res.Truth.NativeCycles)
	}
	if res.Truth.NativeMethodCalls != 1 {
		t.Fatalf("native calls = %d", res.Truth.NativeMethodCalls)
	}
}

func TestRunMissingEntryPoint(t *testing.T) {
	p := miniProgram(t)
	p.MainClass = ""
	if _, err := Run(p, nil, vm.DefaultOptions()); err == nil {
		t.Fatal("missing entry point accepted")
	}
}

func TestRunUnknownMain(t *testing.T) {
	p := miniProgram(t)
	p.MainName = "nope"
	if _, err := Run(p, nil, vm.DefaultOptions()); err == nil {
		t.Fatal("unknown main accepted")
	}
}

func TestRunBadClassRejected(t *testing.T) {
	p := miniProgram(t)
	p.Classes = append(p.Classes, &classfile.Class{
		Name: "bad/C",
		Methods: []*classfile.Method{{
			Name: "m", Desc: "()V", Flags: classfile.AccStatic,
			MaxStack: 1, Code: []byte{0xFE},
		}},
	})
	if _, err := Run(p, nil, vm.DefaultOptions()); err == nil {
		t.Fatal("unverifiable class accepted")
	}
}

func TestReportNativeFraction(t *testing.T) {
	r := &Report{TotalBytecodeCycles: 900, TotalNativeCycles: 100}
	if f := r.NativeFraction(); f != 0.1 {
		t.Fatalf("fraction = %f, want 0.1", f)
	}
	empty := &Report{}
	if empty.NativeFraction() != 0 {
		t.Fatal("empty report fraction not 0")
	}
	if r.TotalCycles() != 1000 {
		t.Fatalf("TotalCycles = %d", r.TotalCycles())
	}
}

func TestReportString(t *testing.T) {
	r := &Report{
		AgentName:           "IPA",
		TotalBytecodeCycles: 800,
		TotalNativeCycles:   200,
		JNICalls:            5,
		NativeMethodCalls:   7,
		PerThread: []ThreadStats{
			{ThreadID: 1, Name: "main", BytecodeCycles: 800, NativeCycles: 200, JNICalls: 5, NativeMethodCalls: 7},
		},
	}
	s := r.String()
	for _, want := range []string{"IPA", "20.00%", "5 JNI calls", "7 native method calls", "main"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestGroundTruthNativeFraction(t *testing.T) {
	g := GroundTruth{BytecodeCycles: 300, NativeCycles: 100, OverheadCycles: 600}
	// Overhead excluded from the denominator.
	if f := g.NativeFraction(); f != 0.25 {
		t.Fatalf("fraction = %f, want 0.25", f)
	}
	if (GroundTruth{}).NativeFraction() != 0 {
		t.Fatal("empty ground truth fraction not 0")
	}
}

func TestThroughput(t *testing.T) {
	r := &RunResult{Ops: 500, TotalCycles: 1_000_000}
	if got := r.Throughput(); got != 500 {
		t.Fatalf("throughput = %f, want 500 ops/Mcycle", got)
	}
	zero := &RunResult{Ops: 500}
	if zero.Throughput() != 0 {
		t.Fatal("zero-cycle throughput not 0")
	}
}

func TestRunConflictingLibrary(t *testing.T) {
	p := miniProgram(t)
	p.Libraries = append(p.Libraries, p.Libraries[0])
	if _, err := Run(p, nil, vm.DefaultOptions()); err == nil {
		t.Fatal("conflicting library accepted")
	}
}

// arrayProgram returns a program whose main fills a 64-word array with
// fill and returns its handle.
func arrayProgram(t *testing.T, fill int64) *Program {
	t.Helper()
	a := bytecode.NewAssembler()
	a.Const(64)
	a.NewArray()
	a.Store(0)
	a.Const(0)
	a.Store(1)
	top, end := a.NewLabel(), a.NewLabel()
	a.Bind(top)
	a.Load(1)
	a.Const(64)
	a.IfCmpge(end)
	a.Load(0)
	a.Load(1)
	a.Const(fill)
	a.AStore()
	a.Inc(1, 1)
	a.Goto(top)
	a.Bind(end)
	a.Load(0)
	a.IReturn()
	mainM, err := a.FinishMethod("main", "()J", classfile.AccStatic, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &Program{
		Name:      "array",
		Classes:   []*classfile.Class{{Name: "a/Main", Methods: []*classfile.Method{mainM}}},
		MainClass: "a/Main", MainName: "main", MainDesc: "()J",
	}
}

// TestRunKeepVMNeverReleases: Run releases its VM's heap to the arena
// free list, but a VM RunKeepVM hands back stays the caller's — later
// Runs, which recycle released blocks, must never write into its arrays.
func TestRunKeepVMNeverReleases(t *testing.T) {
	res, kept, err := RunKeepVM(arrayProgram(t, 7), nil, vm.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := Run(arrayProgram(t, -1), nil, vm.DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 64; i++ {
		v, err := kept.Heap.Load(res.MainResult, i)
		if err != nil || v != 7 {
			t.Fatalf("kept VM word %d = %d (%v), want 7", i, v, err)
		}
	}
}

package jni

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/classfile"
	"repro/internal/vm"
)

func TestFunctionNamesCountAndShape(t *testing.T) {
	names := FunctionNames()
	// 3 families x 10 return types x 3 styles = 90, the figure the paper
	// derives in Section IV.
	if len(names) != 90 {
		t.Fatalf("len = %d, want 90", len(names))
	}
	seen := make(map[string]bool)
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate name %q", n)
		}
		seen[n] = true
		if !strings.HasPrefix(n, "Call") || !strings.Contains(n, "Method") {
			t.Fatalf("malformed name %q", n)
		}
	}
	for _, want := range []string{
		"CallIntMethod", "CallIntMethodV", "CallIntMethodA",
		"CallStaticVoidMethodA", "CallNonvirtualObjectMethodV",
		"CallStaticLongMethod", "CallNonvirtualDoubleMethodA",
	} {
		if !seen[want] {
			t.Fatalf("missing %q", want)
		}
	}
}

// buildTestVM wires a VM with one Java class:
//
//	static int add(int a, int b) { return a+b; }
//	int mul(int k) { return recv * k; }   // instance; recv is the handle word
//	static native long viaJNI(long x);
func buildTestVM(t *testing.T) (*vm.VM, *JNI) {
	t.Helper()
	aa := bytecode.NewAssembler()
	aa.Load(0)
	aa.Load(1)
	aa.Add()
	aa.IReturn()
	add, err := aa.FinishMethod("add", "(II)I", classfile.AccStatic, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	am := bytecode.NewAssembler()
	am.Load(0)
	am.Load(1)
	am.Mul()
	am.IReturn()
	mul, err := am.FinishMethod("mul", "(I)I", classfile.AccPublic, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	nat := &classfile.Method{
		Name: "viaJNI", Desc: "(J)J",
		Flags: classfile.AccStatic | classfile.AccNative,
	}
	cls := &classfile.Class{Name: "t/C", Methods: []*classfile.Method{add, mul, nat}}
	v := vm.New(vm.DefaultOptions())
	if err := v.LoadClasses([]*classfile.Class{cls}); err != nil {
		t.Fatal(err)
	}
	j := Attach(v)
	return v, j
}

func TestEnvCallStaticRoutesThroughTable(t *testing.T) {
	v, j := buildTestVM(t)
	th := v.NewDetachedThread("t")
	env, ok := th.Env().(*Env)
	if !ok {
		t.Fatalf("Env factory returned %T, want *jni.Env", th.Env())
	}
	got, err := env.CallStatic("t/C", "add", "(II)I", 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Fatalf("add = %d, want 5", got)
	}
	if j.CallCount() != 1 {
		t.Fatalf("CallCount = %d, want 1", j.CallCount())
	}
}

func TestEnvCallVirtual(t *testing.T) {
	v, _ := buildTestVM(t)
	th := v.NewDetachedThread("t")
	env := th.Env().(*Env)
	got, err := env.CallVirtual("t/C", "mul", "(I)I", 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("mul = %d, want 42", got)
	}
}

func TestCallByNameAllStylesAndFamilies(t *testing.T) {
	v, j := buildTestVM(t)
	th := v.NewDetachedThread("t")
	env := th.Env().(*Env)
	for _, name := range []string{"CallStaticIntMethod", "CallStaticIntMethodV", "CallStaticIntMethodA"} {
		got, err := env.CallByName(name, &Call{
			Class: "t/C", Method: "add", Desc: "(II)I", Args: []int64{10, 20},
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != 30 {
			t.Fatalf("%s = %d, want 30", name, got)
		}
	}
	for _, name := range []string{"CallIntMethodA", "CallNonvirtualIntMethodA"} {
		got, err := env.CallByName(name, &Call{
			Class: "t/C", Method: "mul", Desc: "(I)I", Recv: 3, Args: []int64{9},
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != 27 {
			t.Fatalf("%s = %d, want 27", name, got)
		}
	}
	if j.CallCount() != 5 {
		t.Fatalf("CallCount = %d, want 5", j.CallCount())
	}
}

func TestCallByNameReturnTypeMismatch(t *testing.T) {
	v, _ := buildTestVM(t)
	th := v.NewDetachedThread("t")
	env := th.Env().(*Env)
	// add returns int; calling through a Long function must fail.
	_, err := env.CallByName("CallStaticLongMethodA", &Call{
		Class: "t/C", Method: "add", Desc: "(II)I", Args: []int64{1, 2},
	})
	if err == nil {
		t.Fatal("return-type mismatch accepted")
	}
}

func TestCallByNameUnknownFunction(t *testing.T) {
	v, _ := buildTestVM(t)
	th := v.NewDetachedThread("t")
	env := th.Env().(*Env)
	if _, err := env.CallByName("CallFancyMethodX", &Call{}); err == nil {
		t.Fatal("unknown function accepted")
	}
}

func TestTableInterception(t *testing.T) {
	v, j := buildTestVM(t)
	var began, ended int
	orig := j.Table().Snapshot()
	entries := make(map[string]Func)
	for _, name := range FunctionNames() {
		o := orig[name]
		entries[name] = func(env *Env, call *Call) (int64, error) {
			began++
			r, err := o(env, call)
			ended++
			return r, err
		}
	}
	if err := j.Table().Replace(entries); err != nil {
		t.Fatal(err)
	}
	th := v.NewDetachedThread("t")
	env := th.Env().(*Env)
	if _, err := env.CallStatic("t/C", "add", "(II)I", 1, 1); err != nil {
		t.Fatal(err)
	}
	if began != 1 || ended != 1 {
		t.Fatalf("wrapper fired %d/%d times, want 1/1", began, ended)
	}
}

// TestDefaultTableShared pins the process-wide default table: every VM
// starts from the same array, and interception on one VM replaces a copy
// that no other VM sees.
func TestDefaultTableShared(t *testing.T) {
	v1, j1 := buildTestVM(t)
	_, j2 := buildTestVM(t)
	if j1.Table().funcs.Load() != defaultFuncs || j2.Table().funcs.Load() != defaultFuncs {
		t.Fatal("a fresh VM does not start from the shared default table")
	}
	want := defaultFuncs[funcIndex["CallStaticIntMethodA"]]
	var wrapped int
	if err := j1.Table().Replace(map[string]Func{"CallStaticIntMethodA": func(env *Env, call *Call) (int64, error) {
		wrapped++
		return want(env, call)
	}}); err != nil {
		t.Fatal(err)
	}
	if j1.Table().funcs.Load() == defaultFuncs || j2.Table().funcs.Load() != defaultFuncs {
		t.Fatal("Replace wrote the shared default table")
	}
	env := v1.NewDetachedThread("t").Env().(*Env)
	if r, err := env.CallStatic("t/C", "add", "(II)I", 2, 3); err != nil || r != 5 || wrapped != 1 {
		t.Fatalf("intercepted upcall = %d, %v after %d wraps", r, err, wrapped)
	}
}

// TestCallByNameChecksUpcallRecord: upcall's record skips the return-type
// check only for the function upcall chose; a wrapper that forwards it
// through CallByName to a function of another return type is checked.
func TestCallByNameChecksUpcallRecord(t *testing.T) {
	v, j := buildTestVM(t)
	if err := j.Table().Replace(map[string]Func{"CallStaticIntMethodA": func(env *Env, call *Call) (int64, error) {
		return env.CallByName("CallStaticLongMethodA", call)
	}}); err != nil {
		t.Fatal(err)
	}
	env := v.NewDetachedThread("t").Env().(*Env)
	if _, err := env.CallStatic("t/C", "add", "(II)I", 1, 2); err == nil {
		t.Fatal("an int upcall forwarded to CallStaticLongMethodA passed the return-type check")
	}
}

func TestTableReplaceRejectsUnknownOrNil(t *testing.T) {
	_, j := buildTestVM(t)
	if err := j.Table().Replace(map[string]Func{"Nope": nil}); err == nil {
		t.Fatal("unknown name accepted")
	}
	if err := j.Table().Replace(map[string]Func{"CallIntMethodA": nil}); err == nil {
		t.Fatal("nil entry accepted")
	}
}

func TestNativeCodeCallsBackThroughJNI(t *testing.T) {
	// Full round trip: bytecode -> native viaJNI -> JNI CallStatic ->
	// bytecode add. The JNI call count must reflect the N2J transition.
	v, j := buildTestVM(t)
	err := v.RegisterNative("t/C", "viaJNI", "(J)J", func(env vm.Env, args []int64) (int64, error) {
		env.Work(50)
		r, err := env.CallStatic("t/C", "add", "(II)I", args[0], 100)
		return r, err
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := v.Run("t/C", "viaJNI", "(J)J", 11)
	if err != nil {
		t.Fatal(err)
	}
	if got != 111 {
		t.Fatalf("viaJNI = %d, want 111", got)
	}
	// Two JNI calls: the thread launcher's initial invocation of viaJNI
	// (mirroring the JVM launcher calling main via JNI) plus the
	// callback from native code into add.
	if j.CallCount() != 2 {
		t.Fatalf("CallCount = %d, want 2", j.CallCount())
	}
	if v.NativeCallCount() != 1 {
		t.Fatalf("NativeCallCount = %d, want 1", v.NativeCallCount())
	}
}

func TestEnvHeapHelpers(t *testing.T) {
	v, _ := buildTestVM(t)
	th := v.NewDetachedThread("t")
	env := th.Env().(*Env)
	h, err := env.NewArray(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.ArrayStore(h, 0, 9); err != nil {
		t.Fatal(err)
	}
	got, err := env.ArrayLoad(h, 0)
	if err != nil || got != 9 {
		t.Fatalf("ArrayLoad = %d, %v", got, err)
	}
}

func TestEnvWorkAttributedToNative(t *testing.T) {
	v, _ := buildTestVM(t)
	th := v.NewDetachedThread("t")
	env := th.Env().(*Env)
	env.Work(777)
	_, nat, _ := th.GroundTruth()
	if nat != 777 {
		t.Fatalf("native ground truth = %d, want 777", nat)
	}
}

func TestFunctionForSelection(t *testing.T) {
	cases := []struct {
		family, desc, style, want string
	}{
		{"Static", "()V", "A", "CallStaticVoidMethodA"},
		{"", "(I)I", "", "CallIntMethod"},
		{"Nonvirtual", "()J", "V", "CallNonvirtualLongMethodV"},
		{"Static", "()Ljava/lang/String;", "A", "CallStaticObjectMethodA"},
		{"Static", "()[I", "A", "CallStaticObjectMethodA"},
		{"", "()D", "A", "CallDoubleMethodA"},
	}
	// Every family, return type and style, against the name tables: the
	// switch-based indexes must agree with families/types/styles.
	for _, f := range families {
		for _, ty := range types {
			for _, st := range styles {
				desc := "()" + typeToDesc[ty][:1]
				if ty == "Object" {
					desc = "()Lx;"
				}
				cases = append(cases, struct{ family, desc, style, want string }{
					f, desc, st, "Call" + f + ty + "Method" + st})
			}
		}
	}
	for _, c := range cases {
		got, err := functionFor(c.family, c.desc, c.style)
		if err != nil {
			t.Fatalf("functionFor(%q,%q,%q): %v", c.family, c.desc, c.style, err)
		}
		if names[got] != c.want {
			t.Fatalf("functionFor(%q,%q,%q) = %q, want %q", c.family, c.desc, c.style, names[got], c.want)
		}
	}
}

func TestParseFunctionName(t *testing.T) {
	fam, ret := parseFunctionName("CallStaticIntMethodA")
	if fam != "Static" || ret != "I" {
		t.Fatalf("got %q %q", fam, ret)
	}
	fam, ret = parseFunctionName("CallObjectMethod")
	if fam != "" || ret != "L[" {
		t.Fatalf("got %q %q", fam, ret)
	}
	fam, ret = parseFunctionName("CallNonvirtualVoidMethodV")
	if fam != "Nonvirtual" || ret != "V" {
		t.Fatalf("got %q %q", fam, ret)
	}
}

// TestUpcallResolvesClassLoadedLater: a failed by-name resolution is not
// kept, so an upcall to a class loaded after the first attempt succeeds
// once the class exists.
func TestUpcallResolvesClassLoadedLater(t *testing.T) {
	v, _ := buildTestVM(t)
	env := v.NewDetachedThread("t").Env().(*Env)
	if _, err := env.CallStatic("t/Late", "f", "()I"); !errors.Is(err, vm.ErrNoSuchClass) {
		t.Fatalf("upcall before load: err = %v, want ErrNoSuchClass", err)
	}
	a := bytecode.NewAssembler()
	a.Const(9)
	a.IReturn()
	f, err := a.FinishMethod("f", "()I", classfile.AccPublic|classfile.AccStatic, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.LoadClass(&classfile.Class{Name: "t/Late", Methods: []*classfile.Method{f}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if got, err := env.CallStatic("t/Late", "f", "()I"); err != nil || got != 9 {
			t.Fatalf("upcall %d after load = %d, %v; want 9", i, got, err)
		}
	}
}

// TestUpcallKindMismatchEveryCall: a resolution the thread keeps still
// has its static-versus-instance check applied on every call.
func TestUpcallKindMismatchEveryCall(t *testing.T) {
	v, _ := buildTestVM(t)
	env := v.NewDetachedThread("t").Env().(*Env)
	if got, err := env.CallStatic("t/C", "add", "(II)I", 2, 3); err != nil || got != 5 {
		t.Fatalf("add = %d, %v", got, err)
	}
	if got, err := env.CallVirtual("t/C", "mul", "(I)I", 6, 7); err != nil || got != 42 {
		t.Fatalf("mul = %d, %v", got, err)
	}
	for i := 0; i < 2; i++ {
		if _, err := env.CallVirtual("t/C", "add", "(II)I", 1, 2); err == nil ||
			!strings.Contains(err.Error(), "is static") {
			t.Fatalf("virtual upcall %d of a static method: err = %v", i, err)
		}
		if _, err := env.CallStatic("t/C", "mul", "(I)I", 6, 7); err == nil ||
			!strings.Contains(err.Error(), "not static") {
			t.Fatalf("static upcall %d of an instance method: err = %v", i, err)
		}
	}
}

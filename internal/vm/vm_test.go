package vm

import (
	"errors"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/classfile"
)

// buildClass assembles a class with the given methods.
func buildClass(t *testing.T, name string, methods ...*classfile.Method) *classfile.Class {
	t.Helper()
	c := &classfile.Class{Name: name, Methods: methods}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

// sumMethod returns: static int sumTo(int n) { s=0; while(n>0){s+=n;n--}; return s; }
func sumMethod(t *testing.T) *classfile.Method {
	t.Helper()
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
	m, err := a.FinishMethod("sumTo", "(I)I", classfile.AccStatic, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRunSimpleLoop(t *testing.T) {
	v := New(DefaultOptions())
	if err := v.LoadClasses([]*classfile.Class{buildClass(t, "t/Main", sumMethod(t))}); err != nil {
		t.Fatal(err)
	}
	got, err := v.Run("t/Main", "sumTo", "(I)I", 10)
	if err != nil {
		t.Fatal(err)
	}
	if got != 55 {
		t.Fatalf("sumTo(10) = %d, want 55", got)
	}
}

func TestRunOnlyOnce(t *testing.T) {
	v := New(DefaultOptions())
	if err := v.LoadClasses([]*classfile.Class{buildClass(t, "t/Main", sumMethod(t))}); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Run("t/Main", "sumTo", "(I)I", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Run("t/Main", "sumTo", "(I)I", 1); !errors.Is(err, ErrHalted) {
		t.Fatalf("second Run: err = %v, want ErrHalted", err)
	}
}

func TestRunUnknownClassOrMethod(t *testing.T) {
	v := New(DefaultOptions())
	if _, err := v.Run("no/Class", "m", "()V"); !errors.Is(err, ErrNoSuchClass) {
		t.Fatalf("err = %v, want ErrNoSuchClass", err)
	}
	v2 := New(DefaultOptions())
	if err := v2.LoadClasses([]*classfile.Class{buildClass(t, "t/Main", sumMethod(t))}); err != nil {
		t.Fatal(err)
	}
	if _, err := v2.Run("t/Main", "nope", "()V"); !errors.Is(err, ErrNoSuchMethod) {
		t.Fatalf("err = %v, want ErrNoSuchMethod", err)
	}
}

func TestLoadClassDuplicate(t *testing.T) {
	v := New(DefaultOptions())
	c := buildClass(t, "t/Main", sumMethod(t))
	if _, err := v.LoadClass(c); err != nil {
		t.Fatal(err)
	}
	if _, err := v.LoadClass(c); err == nil {
		t.Fatal("duplicate class accepted")
	}
}

func TestLoadClassRunsVerifier(t *testing.T) {
	v := New(DefaultOptions())
	bad := &classfile.Class{
		Name: "t/Bad",
		Methods: []*classfile.Method{{
			Name: "m", Desc: "()V", Flags: classfile.AccStatic,
			MaxStack: 1, MaxLocals: 0, Code: []byte{0xFE},
		}},
	}
	if _, err := v.LoadClass(bad); err == nil {
		t.Fatal("unverifiable class accepted")
	}
}

func TestClassFileLoadHookTransforms(t *testing.T) {
	v := New(DefaultOptions())
	var sawName string
	v.SetHooks(Hooks{
		ClassFileLoad: func(c *classfile.Class) *classfile.Class {
			sawName = c.Name
			r := c.Clone()
			r.SourceFile = "transformed"
			return r
		},
	})
	c, err := v.LoadClass(buildClass(t, "t/Main", sumMethod(t)))
	if err != nil {
		t.Fatal(err)
	}
	if sawName != "t/Main" {
		t.Fatalf("hook saw %q", sawName)
	}
	if c.Def().SourceFile != "transformed" {
		t.Fatal("transformation not applied")
	}
}

func TestNativeMethodInvocation(t *testing.T) {
	v := New(DefaultOptions())
	natDef := &classfile.Method{
		Name: "twice", Desc: "(I)I",
		Flags: classfile.AccStatic | classfile.AccNative,
	}
	a := bytecode.NewAssembler()
	a.Load(0)
	a.InvokeStatic("t/Main", "twice", "(I)I")
	a.IReturn()
	caller, err := a.FinishMethod("main", "(I)I", classfile.AccStatic, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.LoadClasses([]*classfile.Class{buildClass(t, "t/Main", caller, natDef)}); err != nil {
		t.Fatal(err)
	}
	err = v.RegisterNative("t/Main", "twice", "(I)I", func(env Env, args []int64) (int64, error) {
		env.Work(100)
		return args[0] * 2, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := v.Run("t/Main", "main", "(I)I", 21)
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("main(21) = %d, want 42", got)
	}
}

func TestNativeUnsatisfiedLink(t *testing.T) {
	v := New(DefaultOptions())
	natDef := &classfile.Method{
		Name: "missing", Desc: "()V",
		Flags: classfile.AccStatic | classfile.AccNative,
	}
	if err := v.LoadClasses([]*classfile.Class{buildClass(t, "t/Main", natDef)}); err != nil {
		t.Fatal(err)
	}
	_, err := v.Run("t/Main", "missing", "()V")
	if !errors.Is(err, ErrUnsatisfiedLink) {
		t.Fatalf("err = %v, want ErrUnsatisfiedLink", err)
	}
}

func TestNativePrefixResolution(t *testing.T) {
	// The class declares "_ipa_work" (renamed by the instrumenter); the
	// native library registers plain "work". With the prefix announced,
	// linking must succeed via the retry strategy.
	v := New(DefaultOptions())
	natDef := &classfile.Method{
		Name: "_ipa_work", Desc: "()I",
		Flags: classfile.AccStatic | classfile.AccNative,
	}
	if err := v.LoadClasses([]*classfile.Class{buildClass(t, "t/Main", natDef)}); err != nil {
		t.Fatal(err)
	}
	err := v.RegisterNative("t/Main", "work", "()I", func(env Env, args []int64) (int64, error) {
		return 7, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.SetNativeMethodPrefix("_ipa_"); err != nil {
		t.Fatal(err)
	}
	got, err := v.Run("t/Main", "_ipa_work", "()I")
	if err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Fatalf("got %d, want 7", got)
	}
}

func TestNativePrefixNotAnnouncedFailsLink(t *testing.T) {
	v := New(DefaultOptions())
	natDef := &classfile.Method{
		Name: "_ipa_work", Desc: "()I",
		Flags: classfile.AccStatic | classfile.AccNative,
	}
	if err := v.LoadClasses([]*classfile.Class{buildClass(t, "t/Main", natDef)}); err != nil {
		t.Fatal(err)
	}
	v.RegisterNative("t/Main", "work", "()I", func(env Env, args []int64) (int64, error) {
		return 7, nil
	})
	if _, err := v.Run("t/Main", "_ipa_work", "()I"); !errors.Is(err, ErrUnsatisfiedLink) {
		t.Fatalf("err = %v, want ErrUnsatisfiedLink", err)
	}
}

func TestSetNativeMethodPrefixEmpty(t *testing.T) {
	v := New(DefaultOptions())
	if err := v.SetNativeMethodPrefix(""); err == nil {
		t.Fatal("empty prefix accepted")
	}
}

func TestLoadLibraryConflict(t *testing.T) {
	v := New(DefaultOptions())
	fn := func(env Env, args []int64) (int64, error) { return 0, nil }
	lib := NativeLibrary{Name: "l", Funcs: map[string]NativeFunc{"a/B.f()V": fn}}
	if err := v.LoadLibrary(lib); err != nil {
		t.Fatal(err)
	}
	if err := v.LoadLibrary(lib); err == nil {
		t.Fatal("conflicting symbol accepted")
	}
}

func TestLoadLibraryNilFunc(t *testing.T) {
	v := New(DefaultOptions())
	lib := NativeLibrary{Name: "l", Funcs: map[string]NativeFunc{"a/B.f()V": nil}}
	if err := v.LoadLibrary(lib); err == nil {
		t.Fatal("nil implementation accepted")
	}
}

// TestRegisterNativeErrors pins RegisterNative's two refusals, each
// naming the symbol: a symbol already registered (by LoadLibrary or an
// earlier RegisterNative) and a nil implementation, which registers
// nothing.
func TestRegisterNativeErrors(t *testing.T) {
	v := New(DefaultOptions())
	fn := func(env Env, args []int64) (int64, error) { return 0, nil }
	lib := NativeLibrary{Name: "l", Funcs: map[string]NativeFunc{"a/B.f()V": fn}}
	if err := v.LoadLibrary(lib); err != nil {
		t.Fatal(err)
	}
	err := v.RegisterNative("a/B", "f", "()V", fn)
	if err == nil || err.Error() != "vm: native symbol a/B.f()V already registered" {
		t.Fatalf("re-registering a library symbol: %v", err)
	}
	if err := v.RegisterNative("a/B", "g", "()V", fn); err != nil {
		t.Fatal(err)
	}
	err = v.RegisterNative("a/B", "g", "()V", fn)
	if err == nil || err.Error() != "vm: native symbol a/B.g()V already registered" {
		t.Fatalf("registering a symbol twice: %v", err)
	}
	err = v.RegisterNative("a/B", "h", "()V", nil)
	if err == nil || err.Error() != "vm: native symbol a/B.h()V has nil implementation" {
		t.Fatalf("registering a nil implementation: %v", err)
	}
	if err := v.RegisterNative("a/B", "h", "()V", fn); err != nil {
		t.Fatalf("the refused nil implementation was registered: %v", err)
	}
}

func TestStaticFields(t *testing.T) {
	a := bytecode.NewAssembler()
	a.GetStatic("t/Main", "x")
	a.Const(5)
	a.Add()
	a.PutStatic("t/Main", "x")
	a.GetStatic("t/Main", "x")
	a.IReturn()
	m, err := a.FinishMethod("bump", "()I", classfile.AccStatic, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	cls := &classfile.Class{
		Name:    "t/Main",
		Fields:  []*classfile.Field{{Name: "x", Flags: classfile.AccStatic, Init: 10}},
		Methods: []*classfile.Method{m},
	}
	v := New(DefaultOptions())
	if err := v.LoadClasses([]*classfile.Class{cls}); err != nil {
		t.Fatal(err)
	}
	got, err := v.Run("t/Main", "bump", "()I")
	if err != nil {
		t.Fatal(err)
	}
	if got != 15 {
		t.Fatalf("bump = %d, want 15", got)
	}
}

func TestArraysInBytecode(t *testing.T) {
	// int[] a = new int[3]; a[1] = 7; return a[1] + a.length;
	a := bytecode.NewAssembler()
	a.Const(3)
	a.NewArray()
	a.Store(0)
	a.Load(0)
	a.Const(1)
	a.Const(7)
	a.AStore()
	a.Load(0)
	a.Const(1)
	a.ALoad()
	a.Load(0)
	a.ArrayLen()
	a.Add()
	a.IReturn()
	m, err := a.FinishMethod("arr", "()I", classfile.AccStatic, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := New(DefaultOptions())
	if err := v.LoadClasses([]*classfile.Class{buildClass(t, "t/Main", m)}); err != nil {
		t.Fatal(err)
	}
	got, err := v.Run("t/Main", "arr", "()I")
	if err != nil {
		t.Fatal(err)
	}
	if got != 10 {
		t.Fatalf("arr = %d, want 10", got)
	}
}

func TestDivideByZeroUncaught(t *testing.T) {
	a := bytecode.NewAssembler()
	a.Const(5)
	a.Const(0)
	a.Div()
	a.IReturn()
	m, err := a.FinishMethod("boom", "()I", classfile.AccStatic, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := New(DefaultOptions())
	if err := v.LoadClasses([]*classfile.Class{buildClass(t, "t/Main", m)}); err != nil {
		t.Fatal(err)
	}
	_, err = v.Run("t/Main", "boom", "()I")
	if _, ok := AsThrown(err); !ok {
		t.Fatalf("err = %v, want Thrown", err)
	}
}

func TestExceptionHandlerCatches(t *testing.T) {
	// try { throw 99 } catch(v) { return v+1 }
	a := bytecode.NewAssembler()
	h := a.NewLabel()
	start := a.Offset()
	a.Const(99)
	a.Throw()
	end := a.Offset()
	a.EnterHandler()
	a.Bind(h)
	a.Const(1)
	a.Add()
	a.IReturn()
	code, consts, refs, maxStack, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	m := &classfile.Method{
		Name: "catch", Desc: "()I", Flags: classfile.AccStatic,
		MaxStack: maxStack + 1, MaxLocals: 0,
		Code: code, Consts: consts, Refs: refs,
		Handlers: []classfile.ExceptionEntry{{StartPC: start, EndPC: end, HandlerPC: end}},
	}
	v := New(DefaultOptions())
	if err := v.LoadClasses([]*classfile.Class{buildClass(t, "t/Main", m)}); err != nil {
		t.Fatal(err)
	}
	got, err := v.Run("t/Main", "catch", "()I")
	if err != nil {
		t.Fatal(err)
	}
	if got != 100 {
		t.Fatalf("catch = %d, want 100", got)
	}
}

func TestExceptionPropagatesThroughCalls(t *testing.T) {
	// callee throws; caller has a handler around the invoke.
	at := bytecode.NewAssembler()
	at.Const(7)
	at.Throw()
	thrower, err := at.FinishMethod("thrower", "()V", classfile.AccStatic, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	ac := bytecode.NewAssembler()
	h := ac.NewLabel()
	start := ac.Offset()
	ac.InvokeStatic("t/Main", "thrower", "()V")
	ac.Const(0)
	ac.IReturn()
	end := ac.Offset()
	ac.EnterHandler()
	ac.Bind(h)
	ac.IReturn() // returns the thrown value
	code, consts, refs, maxStack, err := ac.Finish()
	if err != nil {
		t.Fatal(err)
	}
	caller := &classfile.Method{
		Name: "caller", Desc: "()I", Flags: classfile.AccStatic,
		MaxStack: maxStack + 1, MaxLocals: 0,
		Code: code, Consts: consts, Refs: refs,
		Handlers: []classfile.ExceptionEntry{{StartPC: start, EndPC: end, HandlerPC: end}},
	}
	v := New(DefaultOptions())
	if err := v.LoadClasses([]*classfile.Class{buildClass(t, "t/Main", caller, thrower)}); err != nil {
		t.Fatal(err)
	}
	got, err := v.Run("t/Main", "caller", "()I")
	if err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Fatalf("caller = %d, want 7", got)
	}
}

func TestNativeExceptionPropagates(t *testing.T) {
	v := New(DefaultOptions())
	natDef := &classfile.Method{
		Name: "boom", Desc: "()V",
		Flags: classfile.AccStatic | classfile.AccNative,
	}
	if err := v.LoadClasses([]*classfile.Class{buildClass(t, "t/Main", natDef)}); err != nil {
		t.Fatal(err)
	}
	v.RegisterNative("t/Main", "boom", "()V", func(env Env, args []int64) (int64, error) {
		return 0, Throw(13, "native failure")
	})
	_, err := v.Run("t/Main", "boom", "()V")
	th, ok := AsThrown(err)
	if !ok || th.Value != 13 {
		t.Fatalf("err = %v, want Thrown(13)", err)
	}
}

func TestStackOverflowGuard(t *testing.T) {
	// static void rec() { rec(); }
	a := bytecode.NewAssembler()
	a.InvokeStatic("t/Main", "rec", "()V")
	a.Return()
	m, err := a.FinishMethod("rec", "()V", classfile.AccStatic, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.MaxFrames = 64
	v := New(opts)
	if err := v.LoadClasses([]*classfile.Class{buildClass(t, "t/Main", m)}); err != nil {
		t.Fatal(err)
	}
	_, err = v.Run("t/Main", "rec", "()V")
	th, ok := AsThrown(err)
	if !ok || th.Reason != "StackOverflowError" {
		t.Fatalf("err = %v, want StackOverflowError", err)
	}
}

func TestInstanceMethodDispatch(t *testing.T) {
	// static int go() { return recv.addTo(5) } with receiver handle 77.
	ai := bytecode.NewAssembler()
	ai.Load(0) // receiver
	ai.Load(1)
	ai.Add()
	ai.IReturn()
	inst, err := ai.FinishMethod("addTo", "(I)I", classfile.AccPublic, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	ac := bytecode.NewAssembler()
	ac.Const(77) // receiver word
	ac.Const(5)
	ac.InvokeVirtual("t/Main", "addTo", "(I)I")
	ac.IReturn()
	caller, err := ac.FinishMethod("go", "()I", classfile.AccStatic, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := New(DefaultOptions())
	if err := v.LoadClasses([]*classfile.Class{buildClass(t, "t/Main", caller, inst)}); err != nil {
		t.Fatal(err)
	}
	got, err := v.Run("t/Main", "go", "()I")
	if err != nil {
		t.Fatal(err)
	}
	if got != 82 {
		t.Fatalf("go = %d, want 82", got)
	}
}

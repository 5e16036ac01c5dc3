package instrument

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/classfile"
	"repro/internal/vm"
)

// nativeClass builds a class with one bytecode method and two native
// methods (one static, one instance, one returning a value).
func nativeClass(t testing.TB) *classfile.Class {
	t.Helper()
	a := bytecode.NewAssembler()
	a.Return()
	plain, err := a.FinishMethod("plain", "()V", classfile.AccStatic, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &classfile.Class{
		Name: "w/Native",
		Methods: []*classfile.Method{
			plain,
			{Name: "compute", Desc: "(IJ)J", Flags: classfile.AccPublic | classfile.AccStatic | classfile.AccNative},
			{Name: "touch", Desc: "(I)V", Flags: classfile.AccPublic | classfile.AccNative},
		},
	}
}

func TestClassWrapsNativeMethods(t *testing.T) {
	c := nativeClass(t)
	out, wrapped, err := Class(c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if wrapped != 2 {
		t.Fatalf("wrapped = %d, want 2", wrapped)
	}
	// Original object untouched.
	if c.Method("compute", "(IJ)J") == nil {
		t.Fatal("input class was mutated")
	}
	// Rewritten class: renamed native + synthetic wrapper under old name.
	renamed := out.Method(DefaultPrefix+"compute", "(IJ)J")
	if renamed == nil || !renamed.IsNative() {
		t.Fatal("renamed native method missing")
	}
	w := out.Method("compute", "(IJ)J")
	if w == nil {
		t.Fatal("wrapper missing")
	}
	if w.IsNative() {
		t.Fatal("wrapper still native")
	}
	if !w.Flags.Has(classfile.AccSynthetic) {
		t.Fatal("wrapper not marked synthetic")
	}
	if len(w.Handlers) != 1 {
		t.Fatalf("wrapper handlers = %d, want 1 (finally)", len(w.Handlers))
	}
}

func TestWrapperBytecodeShape(t *testing.T) {
	c := nativeClass(t)
	out, _, err := Class(c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	w := out.Method("compute", "(IJ)J")
	text, err := bytecode.Disassemble(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		DefaultRuntimeClass + "." + J2NBegin + "()V",
		DefaultRuntimeClass + "." + J2NEnd + "()V",
		DefaultPrefix + "compute(IJ)J",
		"ireturn",
		"throw",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("wrapper missing %q:\n%s", want, text)
		}
	}
	// J2N_End must appear twice: normal path + finally handler.
	if n := strings.Count(text, J2NEnd+"()V"); n != 2 {
		t.Errorf("J2N_End appears %d times, want 2:\n%s", n, text)
	}
}

func TestInstanceWrapperUsesInvokeVirtual(t *testing.T) {
	c := nativeClass(t)
	out, _, err := Class(c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	w := out.Method("touch", "(I)V")
	if w == nil {
		t.Fatal("instance wrapper missing")
	}
	text, err := bytecode.Disassemble(w)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "invokevirtual") {
		t.Fatalf("instance wrapper does not invokevirtual:\n%s", text)
	}
	// Receiver + 1 arg = 2 locals.
	if w.MaxLocals != 2 {
		t.Fatalf("MaxLocals = %d, want 2", w.MaxLocals)
	}
}

func TestClassWithoutNativesUnchanged(t *testing.T) {
	a := bytecode.NewAssembler()
	a.Return()
	m, err := a.FinishMethod("m", "()V", classfile.AccStatic, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := &classfile.Class{Name: "p/Plain", Methods: []*classfile.Method{m}}
	out, wrapped, err := Class(c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if wrapped != 0 || out != c {
		t.Fatal("pure-bytecode class was rewritten")
	}
}

func TestRuntimeClassExcluded(t *testing.T) {
	rt := RuntimeClassDef(Config{})
	out, wrapped, err := Class(rt, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if wrapped != 0 || out != rt {
		t.Fatal("runtime class was instrumented")
	}
}

func TestIdempotent(t *testing.T) {
	c := nativeClass(t)
	once, _, err := Class(c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	twice, wrapped, err := Class(once, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if wrapped != 0 || twice != once {
		t.Fatal("second instrumentation pass rewrote the class again")
	}
}

func TestCustomPrefixAndRuntime(t *testing.T) {
	cfg := Config{Prefix: "_wct_", RuntimeClass: "my/RT"}
	out, _, err := Class(nativeClass(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Method("_wct_compute", "(IJ)J") == nil {
		t.Fatal("custom prefix not applied")
	}
	text, _ := bytecode.Disassemble(out.Method("compute", "(IJ)J"))
	if !strings.Contains(text, "my/RT.J2N_Begin()V") {
		t.Fatalf("custom runtime class not used:\n%s", text)
	}
}

func TestClassesStats(t *testing.T) {
	a := bytecode.NewAssembler()
	a.Return()
	plain, err := a.FinishMethod("m", "()V", classfile.AccStatic, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	set := []*classfile.Class{
		nativeClass(t),
		{Name: "p/Plain", Methods: []*classfile.Method{plain}},
		RuntimeClassDef(Config{}),
	}
	out, st, err := Classes(set, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("out = %d classes", len(out))
	}
	if st.ClassesScanned != 3 || st.ClassesChanged != 1 || st.MethodsWrapped != 2 || st.Skipped != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestArchiveRoundTrip(t *testing.T) {
	var in bytes.Buffer
	if err := classfile.WriteArchive(&in, []*classfile.Class{nativeClass(t)}); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	st, err := Archive(&in, &out, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st.MethodsWrapped != 2 {
		t.Fatalf("stats = %+v", st)
	}
	classes, err := classfile.ReadArchive(&out)
	if err != nil {
		t.Fatal(err)
	}
	if classes[0].Method(DefaultPrefix+"compute", "(IJ)J") == nil {
		t.Fatal("archive output not instrumented")
	}
}

func TestArchiveBadInput(t *testing.T) {
	var out bytes.Buffer
	if _, err := Archive(bytes.NewReader([]byte("junk")), &out, Config{}); err == nil {
		t.Fatal("junk archive accepted")
	}
}

func TestLoadHookTransformsOnlyNativeClasses(t *testing.T) {
	hook := LoadHook(Config{})
	if got := hook(nativeClass(t)); got == nil {
		t.Fatal("hook did not transform native class")
	} else if got.Method(DefaultPrefix+"compute", "(IJ)J") == nil {
		t.Fatal("hook transformation incomplete")
	}
	a := bytecode.NewAssembler()
	a.Return()
	m, _ := a.FinishMethod("m", "()V", classfile.AccStatic, 0, nil)
	if hook(&classfile.Class{Name: "p/P", Methods: []*classfile.Method{m}}) != nil {
		t.Fatal("hook transformed a class without natives")
	}
}

// TestWrapperEndToEnd runs an instrumented class on the VM and checks that
// the transition signals fire in the right order, including on the
// exception path.
func TestWrapperEndToEnd(t *testing.T) {
	cfg := Config{}.withDefaults()
	classes, _, err := Classes([]*classfile.Class{nativeClass(t)}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	v := vm.New(vm.DefaultOptions())
	if err := v.SetNativeMethodPrefix(cfg.Prefix); err != nil {
		t.Fatal(err)
	}
	if err := v.LoadClasses(append(classes, RuntimeClassDef(cfg))); err != nil {
		t.Fatal(err)
	}
	var log []string
	v.RegisterNative(cfg.RuntimeClass, J2NBegin, "()V", func(env vm.Env, args []int64) (int64, error) {
		log = append(log, "begin")
		return 0, nil
	})
	v.RegisterNative(cfg.RuntimeClass, J2NEnd, "()V", func(env vm.Env, args []int64) (int64, error) {
		log = append(log, "end")
		return 0, nil
	})
	v.RegisterNative("w/Native", "compute", "(IJ)J", func(env vm.Env, args []int64) (int64, error) {
		log = append(log, "native")
		return args[0] + args[1], nil
	})
	got, err := v.Run("w/Native", "compute", "(IJ)J", 30, 12)
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("compute = %d, want 42", got)
	}
	want := []string{"begin", "native", "end"}
	if len(log) != 3 || log[0] != want[0] || log[1] != want[1] || log[2] != want[2] {
		t.Fatalf("log = %v, want %v", log, want)
	}
}

func TestWrapperFinallyOnException(t *testing.T) {
	cfg := Config{}.withDefaults()
	classes, _, err := Classes([]*classfile.Class{nativeClass(t)}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	v := vm.New(vm.DefaultOptions())
	if err := v.SetNativeMethodPrefix(cfg.Prefix); err != nil {
		t.Fatal(err)
	}
	if err := v.LoadClasses(append(classes, RuntimeClassDef(cfg))); err != nil {
		t.Fatal(err)
	}
	var endFired int
	v.RegisterNative(cfg.RuntimeClass, J2NBegin, "()V", func(env vm.Env, args []int64) (int64, error) {
		return 0, nil
	})
	v.RegisterNative(cfg.RuntimeClass, J2NEnd, "()V", func(env vm.Env, args []int64) (int64, error) {
		endFired++
		return 0, nil
	})
	v.RegisterNative("w/Native", "compute", "(IJ)J", func(env vm.Env, args []int64) (int64, error) {
		return 0, vm.Throw(5, "native blew up")
	})
	_, err = v.Run("w/Native", "compute", "(IJ)J", 1, 2)
	th, ok := vm.AsThrown(err)
	if !ok || th.Value != 5 {
		t.Fatalf("err = %v, want rethrown Thrown(5)", err)
	}
	// The finally handler must have signalled J2N_End exactly once.
	if endFired != 1 {
		t.Fatalf("J2N_End fired %d times on exception path, want 1", endFired)
	}
}

package jvmti

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/classfile"
	"repro/internal/jni"
	"repro/internal/vm"
)

// newTestVM builds a VM + JNI + JVMTI env with a trivial program:
//
//	static void main() { work(); }
//	static native void work();
//	static void spawnWorker();  (via native spawn helper in some tests)
func newTestVM(t *testing.T) (*vm.VM, *jni.JNI, *Env) {
	t.Helper()
	v := vm.New(vm.DefaultOptions())
	j := jni.Attach(v)
	e := NewEnv(v, j)
	natDef := &classfile.Method{
		Name: "work", Desc: "()V",
		Flags: classfile.AccStatic | classfile.AccNative,
	}
	a := bytecode.NewAssembler()
	a.InvokeStatic("t/Main", "work", "()V")
	a.Return()
	mainM, err := a.FinishMethod("main", "()V", classfile.AccStatic, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	cls := &classfile.Class{Name: "t/Main", Methods: []*classfile.Method{mainM, natDef}}
	if err := v.LoadClasses([]*classfile.Class{cls}); err != nil {
		t.Fatal(err)
	}
	err = v.RegisterNative("t/Main", "work", "()V", func(env vm.Env, args []int64) (int64, error) {
		env.Work(100)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return v, j, e
}

func TestEventStrings(t *testing.T) {
	names := map[Event]string{
		EventThreadStart:       "ThreadStart",
		EventThreadEnd:         "ThreadEnd",
		EventVMDeath:           "VMDeath",
		EventMethodEntry:       "MethodEntry",
		EventMethodExit:        "MethodExit",
		EventClassFileLoadHook: "ClassFileLoadHook",
	}
	for ev, want := range names {
		if ev.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(ev), ev.String(), want)
		}
	}
}

func TestThreadAndVMDeathEvents(t *testing.T) {
	v, _, e := newTestVM(t)
	var ends int
	var death bool
	e.SetEventCallbacks(Callbacks{
		ThreadEnd: func(env *Env, th *vm.Thread) { ends++ },
		VMDeath:   func(env *Env) { death = true },
	})
	if err := e.SetEventNotificationMode(true, EventThreadEnd); err != nil {
		t.Fatal(err)
	}
	if err := e.SetEventNotificationMode(true, EventVMDeath); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Run("t/Main", "main", "()V"); err != nil {
		t.Fatal(err)
	}
	if ends != 1 {
		t.Fatalf("ThreadEnd fired %d times, want 1", ends)
	}
	if !death {
		t.Fatal("VMDeath not fired")
	}
}

func TestDisabledEventsNotDelivered(t *testing.T) {
	v, _, e := newTestVM(t)
	var fired bool
	e.SetEventCallbacks(Callbacks{
		ThreadEnd: func(env *Env, th *vm.Thread) { fired = true },
	})
	// Not enabled.
	if _, err := v.Run("t/Main", "main", "()V"); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("disabled event delivered")
	}
}

func TestMethodEventsRequireCapability(t *testing.T) {
	_, _, e := newTestVM(t)
	err := e.SetEventNotificationMode(true, EventMethodEntry)
	if !errors.Is(err, ErrMissingCapability) {
		t.Fatalf("err = %v, want ErrMissingCapability", err)
	}
	e.AddCapabilities(Capabilities{CanGenerateMethodEntryEvents: true})
	if err := e.SetEventNotificationMode(true, EventMethodEntry); err != nil {
		t.Fatal(err)
	}
}

func TestMethodEventsDisableJITThroughEnv(t *testing.T) {
	v, _, e := newTestVM(t)
	e.AddCapabilities(Capabilities{
		CanGenerateMethodEntryEvents: true,
		CanGenerateMethodExitEvents:  true,
	})
	if err := e.SetEventNotificationMode(true, EventMethodEntry); err != nil {
		t.Fatal(err)
	}
	if !v.JITDisabled() {
		t.Fatal("JIT not disabled by enabling MethodEntry")
	}
	if err := e.SetEventNotificationMode(false, EventMethodEntry); err != nil {
		t.Fatal(err)
	}
	if v.JITDisabled() {
		t.Fatal("JIT still disabled after turning events off")
	}
}

func TestMethodEntryExitDelivery(t *testing.T) {
	v, _, e := newTestVM(t)
	e.AddCapabilities(Capabilities{
		CanGenerateMethodEntryEvents: true,
		CanGenerateMethodExitEvents:  true,
	})
	var entries, exits []string
	var sawNative bool
	e.SetEventCallbacks(Callbacks{
		MethodEntry: func(env *Env, th *vm.Thread, m *vm.Method) {
			entries = append(entries, m.Name())
			if m.IsNative() {
				sawNative = true
			}
		},
		MethodExit: func(env *Env, th *vm.Thread, m *vm.Method) {
			exits = append(exits, m.Name())
		},
	})
	for _, ev := range []Event{EventMethodEntry, EventMethodExit} {
		if err := e.SetEventNotificationMode(true, ev); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := v.Run("t/Main", "main", "()V"); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || len(exits) != 2 {
		t.Fatalf("entries=%v exits=%v", entries, exits)
	}
	if !sawNative {
		t.Fatal("native method entry not observed")
	}
}

func TestUnknownEventRejected(t *testing.T) {
	_, _, e := newTestVM(t)
	if err := e.SetEventNotificationMode(true, Event(99)); !errors.Is(err, ErrUnknownEvent) {
		t.Fatalf("err = %v, want ErrUnknownEvent", err)
	}
	if err := e.SetEventNotificationMode(true, Event(-1)); !errors.Is(err, ErrUnknownEvent) {
		t.Fatalf("err = %v, want ErrUnknownEvent", err)
	}
}

func TestClassFileLoadHookGatedAndTransforms(t *testing.T) {
	v := vm.New(vm.DefaultOptions())
	j := jni.Attach(v)
	e := NewEnv(v, j)
	var hooked []string
	e.SetEventCallbacks(Callbacks{
		ClassFileLoadHook: func(env *Env, c *classfile.Class) *classfile.Class {
			hooked = append(hooked, c.Name)
			n := c.Clone()
			n.SourceFile = "hooked"
			return n
		},
	})
	// Without capability, enabling fails.
	if err := e.SetEventNotificationMode(true, EventClassFileLoadHook); !errors.Is(err, ErrMissingCapability) {
		t.Fatalf("err = %v, want ErrMissingCapability", err)
	}
	e.AddCapabilities(Capabilities{CanGenerateAllClassHookEvents: true})
	if err := e.SetEventNotificationMode(true, EventClassFileLoadHook); err != nil {
		t.Fatal(err)
	}
	a := bytecode.NewAssembler()
	a.Return()
	m, err := a.FinishMethod("m", "()V", classfile.AccStatic, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := v.LoadClass(&classfile.Class{Name: "h/C", Methods: []*classfile.Method{m}})
	if err != nil {
		t.Fatal(err)
	}
	if len(hooked) != 1 || hooked[0] != "h/C" {
		t.Fatalf("hooked = %v", hooked)
	}
	if c.Def().SourceFile != "hooked" {
		t.Fatal("transformation not applied")
	}
}

func TestNativeMethodPrefixCapability(t *testing.T) {
	v, _, e := newTestVM(t)
	if err := e.SetNativeMethodPrefix("_p_"); !errors.Is(err, ErrMissingCapability) {
		t.Fatalf("err = %v, want ErrMissingCapability", err)
	}
	e.AddCapabilities(Capabilities{CanSetNativeMethodPrefix: true})
	if err := e.SetNativeMethodPrefix("_p_"); err != nil {
		t.Fatal(err)
	}
	got := v.NativeMethodPrefixes()
	if len(got) != 1 || got[0] != "_p_" {
		t.Fatalf("prefixes = %v", got)
	}
}

func TestJNIFunctionTableRoundTrip(t *testing.T) {
	v, j, e := newTestVM(t)
	table, err := e.GetJNIFunctionTable()
	if err != nil {
		t.Fatal(err)
	}
	if len(table) != 90 {
		t.Fatalf("table has %d entries, want 90", len(table))
	}
	var intercepted int
	for i, orig := range table {
		if orig == nil {
			t.Fatalf("entry %d (%s) unset", i, jni.FunctionNames()[i])
		}
		table[i] = func(env *jni.Env, call *jni.Call) (int64, error) {
			intercepted++
			return orig(env, call)
		}
	}
	if err := e.SetJNIFunctionTable(table); err != nil {
		t.Fatal(err)
	}
	// Route a JNI call and observe the wrapper.
	th := v.NewDetachedThread("t")
	env := th.Env().(*jni.Env)
	if _, err := env.CallStatic("t/Main", "main", "()V"); err != nil {
		t.Fatal(err)
	}
	if intercepted != 1 {
		t.Fatalf("wrapper fired %d times, want 1", intercepted)
	}
	_ = j
}

func TestJNITableWithoutJNILayer(t *testing.T) {
	v := vm.New(vm.DefaultOptions())
	e := NewEnv(v, nil)
	if _, err := e.GetJNIFunctionTable(); err == nil {
		t.Fatal("expected error without JNI layer")
	}
	if err := e.SetJNIFunctionTable(jni.Functions{}); err == nil {
		t.Fatal("expected error without JNI layer")
	}
}

func TestThreadLocalStorage(t *testing.T) {
	v, _, e := newTestVM(t)
	th := v.NewDetachedThread("a")
	th2 := v.NewDetachedThread("b")
	if e.GetThreadLocalStorage(th) != nil {
		t.Fatal("fresh TLS not nil")
	}
	e.SetThreadLocalStorage(th, "ctx-a")
	e.SetThreadLocalStorage(th2, "ctx-b")
	if e.GetThreadLocalStorage(th) != "ctx-a" || e.GetThreadLocalStorage(th2) != "ctx-b" {
		t.Fatal("TLS values mixed up")
	}
}

func TestRawMonitorMutualExclusion(t *testing.T) {
	_, _, e := newTestVM(t)
	m := e.CreateRawMonitor("stats")
	if m.Name() != "stats" {
		t.Fatalf("Name = %q", m.Name())
	}
	var counter int
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 1000; k++ {
				m.Enter()
				counter++
				m.Exit()
			}
		}()
	}
	wg.Wait()
	if counter != 8000 {
		t.Fatalf("counter = %d, want 8000 (lost updates)", counter)
	}
}

func TestTimestampReadsThreadCounter(t *testing.T) {
	v, _, e := newTestVM(t)
	th := v.NewDetachedThread("t")
	before := e.Timestamp(th)
	th.NativeWork(500)
	after := e.Timestamp(th)
	if after-before != 500 {
		t.Fatalf("timestamp delta = %d, want 500", after-before)
	}
}

func TestCapabilitiesAccumulate(t *testing.T) {
	_, _, e := newTestVM(t)
	e.AddCapabilities(Capabilities{CanGenerateMethodEntryEvents: true})
	e.AddCapabilities(Capabilities{CanSetNativeMethodPrefix: true})
	c := e.Capabilities()
	if !c.CanGenerateMethodEntryEvents || !c.CanSetNativeMethodPrefix {
		t.Fatalf("capabilities = %+v", c)
	}
	if c.CanGenerateMethodExitEvents {
		t.Fatal("ungranted capability present")
	}
}

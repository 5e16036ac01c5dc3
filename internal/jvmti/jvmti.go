// Package jvmti reproduces the JVM Tool Interface surface the paper's
// profiling agents are written against (Section II-B): profiling events
// (ThreadStart, ThreadEnd, VMDeath, MethodEntry, MethodExit, and the
// ClassFileLoadHook), thread-local storage, raw monitors, JNI function
// interception, and native method prefixing (JVMTI 1.1).
//
// The two agents — SPA in internal/agents/spa and IPA in
// internal/agents/ipa — use only this interface plus the cycle counters,
// exactly mirroring the portability claim of the paper: nothing in the
// agents touches VM internals.
package jvmti

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/classfile"
	"repro/internal/jni"
	"repro/internal/vm"
)

// Event identifies a JVMTI event kind.
type Event int

// The events used by the paper's agents.
const (
	// EventThreadStart fires before a new thread's initial method runs.
	EventThreadStart Event = iota
	// EventThreadEnd fires after a terminating thread's initial method.
	EventThreadEnd
	// EventVMDeath fires when the VM terminates; no events follow it.
	EventVMDeath
	// EventMethodEntry fires on every method entry, native included.
	EventMethodEntry
	// EventMethodExit fires on every method exit, by return or exception.
	EventMethodExit
	// EventClassFileLoadHook fires before a class is linked, allowing
	// bytecode transformation (dynamic instrumentation).
	EventClassFileLoadHook
	// EventVMObjectAlloc fires on every array allocation, identifying
	// the allocating method and code offset — the JVMTI VMObjectAlloc
	// event, the substrate for allocation-site profilers.
	EventVMObjectAlloc
	// EventGarbageCollection fires after each simulated heap collection
	// with the collection's statistics. Real JVMTI splits this into
	// GarbageCollectionStart/Finish with no payload; the simulator's
	// pauses are atomic, so one event carrying vm.GCInfo replaces the
	// pair (a documented extension, like EventSample below).
	EventGarbageCollection
	// EventSample is not part of JVMTI: it models the SIGPROF-style
	// timer interrupt that system-specific sampling profilers (IBM
	// tprof, Section VI) build on. It is exposed through the same event
	// plumbing so the sampling comparator agent stays portable in this
	// substrate, while the paper's point — samplers cannot count JNI
	// calls or expose mixed call chains — remains observable.
	EventSample
	numEvents
)

// String returns the JVMTI-style event name.
func (e Event) String() string {
	switch e {
	case EventThreadStart:
		return "ThreadStart"
	case EventThreadEnd:
		return "ThreadEnd"
	case EventVMDeath:
		return "VMDeath"
	case EventMethodEntry:
		return "MethodEntry"
	case EventMethodExit:
		return "MethodExit"
	case EventClassFileLoadHook:
		return "ClassFileLoadHook"
	case EventVMObjectAlloc:
		return "VMObjectAlloc"
	case EventGarbageCollection:
		return "GarbageCollection"
	case EventSample:
		return "Sample"
	default:
		return fmt.Sprintf("Event(%d)", int(e))
	}
}

// Capabilities gates the expensive or intrusive JVMTI features, as in the
// real interface where an agent must request capabilities up front.
type Capabilities struct {
	// CanGenerateMethodEntryEvents permits EventMethodEntry delivery.
	CanGenerateMethodEntryEvents bool
	// CanGenerateMethodExitEvents permits EventMethodExit delivery.
	CanGenerateMethodExitEvents bool
	// CanSetNativeMethodPrefix permits the prefix-based wrapper scheme
	// (JVMTI 1.1, required by IPA).
	CanSetNativeMethodPrefix bool
	// CanGenerateAllClassHookEvents permits EventClassFileLoadHook.
	CanGenerateAllClassHookEvents bool
	// CanGenerateVMObjectAllocEvents permits EventVMObjectAlloc.
	CanGenerateVMObjectAllocEvents bool
	// CanGenerateGarbageCollectionEvents permits EventGarbageCollection.
	CanGenerateGarbageCollectionEvents bool
}

// Callbacks is the agent-provided event callback table.
type Callbacks struct {
	ThreadStart func(env *Env, t *vm.Thread)
	ThreadEnd   func(env *Env, t *vm.Thread)
	VMDeath     func(env *Env)
	MethodEntry func(env *Env, t *vm.Thread, m *vm.Method)
	MethodExit  func(env *Env, t *vm.Thread, m *vm.Method)
	// ClassFileLoadHook may return a transformed class, or nil to keep
	// the original.
	ClassFileLoadHook func(env *Env, c *classfile.Class) *classfile.Class
	// VMObjectAlloc receives allocation events: the allocating method
	// and code offset (nil/-1 for native-code allocations), the array
	// length in words, and the fresh handle.
	VMObjectAlloc func(env *Env, t *vm.Thread, m *vm.Method, at int, words int64, handle int64)
	// GarbageCollection receives one event per finished collection, on
	// the thread whose allocation triggered the pause.
	GarbageCollection func(env *Env, t *vm.Thread, info vm.GCInfo)
	// Sample receives PC-sampling ticks when EventSample is enabled and
	// the VM was built with a non-zero Options.SampleInterval.
	Sample func(env *Env, t *vm.Thread, inNative bool)
}

// Errors returned by the environment.
var (
	// ErrMissingCapability reports use of a feature whose capability was
	// not added.
	ErrMissingCapability = errors.New("jvmti: missing capability")
	// ErrUnknownEvent reports an out-of-range event.
	ErrUnknownEvent = errors.New("jvmti: unknown event")
)

// Env is a JVMTI environment bound to one VM. It owns the VM's hook
// surface; create it before loading classes so the ClassFileLoadHook can
// observe every class.
type Env struct {
	vm  *vm.VM
	jni *jni.JNI

	mu        sync.Mutex
	caps      Capabilities
	callbacks Callbacks
	// enabled is read on hot event-dispatch paths (every method entry/
	// exit under SPA); per-event atomics keep those reads lock-free
	// while SetEventNotificationMode serializes writers under mu.
	enabled [numEvents]atomic.Bool
}

// NewEnv creates the JVMTI environment for v, wiring its event dispatchers
// into the VM hooks. A VM supports exactly one environment: hooks and the
// per-thread local-storage slot (SetThreadLocalStorage) are singletons on
// the VM/Thread, so a second NewEnv on the same VM would displace the
// first's hooks and share its TLS. core.RunKeepVM constructs one Env per
// run; multi-agent setups must multiplex behind a single Env (as the
// agent registry does). j may be nil if the agent does not intercept JNI
// functions.
func NewEnv(v *vm.VM, j *jni.JNI) *Env {
	e := &Env{
		vm:  v,
		jni: j,
	}
	v.SetHooks(vm.Hooks{
		ThreadStart: func(t *vm.Thread) {
			if e.isEnabled(EventThreadStart) && e.callbacks.ThreadStart != nil {
				e.callbacks.ThreadStart(e, t)
			}
		},
		ThreadEnd: func(t *vm.Thread) {
			if e.isEnabled(EventThreadEnd) && e.callbacks.ThreadEnd != nil {
				e.callbacks.ThreadEnd(e, t)
			}
		},
		VMDeath: func() {
			if e.isEnabled(EventVMDeath) && e.callbacks.VMDeath != nil {
				e.callbacks.VMDeath(e)
			}
		},
		MethodEntry: func(t *vm.Thread, m *vm.Method) {
			if e.isEnabled(EventMethodEntry) && e.callbacks.MethodEntry != nil {
				e.callbacks.MethodEntry(e, t, m)
			}
		},
		MethodExit: func(t *vm.Thread, m *vm.Method) {
			if e.isEnabled(EventMethodExit) && e.callbacks.MethodExit != nil {
				e.callbacks.MethodExit(e, t, m)
			}
		},
		ClassFileLoad: func(c *classfile.Class) *classfile.Class {
			if e.isEnabled(EventClassFileLoadHook) && e.callbacks.ClassFileLoadHook != nil {
				return e.callbacks.ClassFileLoadHook(e, c)
			}
			return nil
		},
		Allocation: func(t *vm.Thread, m *vm.Method, at int, words int64, handle int64) {
			if e.isEnabled(EventVMObjectAlloc) && e.callbacks.VMObjectAlloc != nil {
				e.callbacks.VMObjectAlloc(e, t, m, at, words, handle)
			}
		},
		GC: func(t *vm.Thread, info vm.GCInfo) {
			if e.isEnabled(EventGarbageCollection) && e.callbacks.GarbageCollection != nil {
				e.callbacks.GarbageCollection(e, t, info)
			}
		},
		Sample: func(t *vm.Thread, inNative bool) {
			if e.isEnabled(EventSample) && e.callbacks.Sample != nil {
				e.callbacks.Sample(e, t, inNative)
			}
		},
	})
	return e
}

// VM returns the bound VM.
func (e *Env) VM() *vm.VM { return e.vm }

// JNI returns the bound JNI layer, or nil.
func (e *Env) JNI() *jni.JNI { return e.jni }

func (e *Env) isEnabled(ev Event) bool {
	return e.enabled[ev].Load()
}

// AddCapabilities requests capabilities; it must precede the features they
// gate.
func (e *Env) AddCapabilities(c Capabilities) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.caps.CanGenerateMethodEntryEvents = e.caps.CanGenerateMethodEntryEvents || c.CanGenerateMethodEntryEvents
	e.caps.CanGenerateMethodExitEvents = e.caps.CanGenerateMethodExitEvents || c.CanGenerateMethodExitEvents
	e.caps.CanSetNativeMethodPrefix = e.caps.CanSetNativeMethodPrefix || c.CanSetNativeMethodPrefix
	e.caps.CanGenerateAllClassHookEvents = e.caps.CanGenerateAllClassHookEvents || c.CanGenerateAllClassHookEvents
	e.caps.CanGenerateVMObjectAllocEvents = e.caps.CanGenerateVMObjectAllocEvents || c.CanGenerateVMObjectAllocEvents
	e.caps.CanGenerateGarbageCollectionEvents = e.caps.CanGenerateGarbageCollectionEvents || c.CanGenerateGarbageCollectionEvents
}

// Capabilities returns the currently granted capability set.
func (e *Env) Capabilities() Capabilities {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.caps
}

// SetEventCallbacks installs the callback table.
func (e *Env) SetEventCallbacks(cb Callbacks) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.callbacks = cb
}

// SetEventNotificationMode enables or disables delivery of one event.
// Enabling MethodEntry or MethodExit requires the corresponding capability
// and — reproducing the central performance effect of Section III —
// disables JIT compilation in the VM for the rest of the run.
func (e *Env) SetEventNotificationMode(enable bool, ev Event) error {
	if ev < 0 || ev >= numEvents {
		return fmt.Errorf("%w: %d", ErrUnknownEvent, int(ev))
	}
	e.mu.Lock()
	switch ev {
	case EventMethodEntry:
		if enable && !e.caps.CanGenerateMethodEntryEvents {
			e.mu.Unlock()
			return fmt.Errorf("%w: CanGenerateMethodEntryEvents", ErrMissingCapability)
		}
	case EventMethodExit:
		if enable && !e.caps.CanGenerateMethodExitEvents {
			e.mu.Unlock()
			return fmt.Errorf("%w: CanGenerateMethodExitEvents", ErrMissingCapability)
		}
	case EventClassFileLoadHook:
		if enable && !e.caps.CanGenerateAllClassHookEvents {
			e.mu.Unlock()
			return fmt.Errorf("%w: CanGenerateAllClassHookEvents", ErrMissingCapability)
		}
	case EventVMObjectAlloc:
		if enable && !e.caps.CanGenerateVMObjectAllocEvents {
			e.mu.Unlock()
			return fmt.Errorf("%w: CanGenerateVMObjectAllocEvents", ErrMissingCapability)
		}
	case EventGarbageCollection:
		if enable && !e.caps.CanGenerateGarbageCollectionEvents {
			e.mu.Unlock()
			return fmt.Errorf("%w: CanGenerateGarbageCollectionEvents", ErrMissingCapability)
		}
	}
	e.enabled[ev].Store(enable)
	methodEvents := e.enabled[EventMethodEntry].Load() || e.enabled[EventMethodExit].Load()
	e.mu.Unlock()
	if ev == EventMethodEntry || ev == EventMethodExit {
		e.vm.EnableMethodEvents(methodEvents)
	}
	// Memory events gate their VM-side delivery the same way method
	// events do, but without disabling the JIT model or the template
	// tier: allocations sit at fixed bytecode sites present in every
	// execution engine, so no per-instruction semantics are needed.
	if ev == EventVMObjectAlloc {
		e.vm.EnableAllocationEvents(enable)
	}
	if ev == EventGarbageCollection {
		e.vm.EnableGCEvents(enable)
	}
	return nil
}

// EventEnabled reports whether ev is currently delivered.
func (e *Env) EventEnabled(ev Event) bool { return e.isEnabled(ev) }

// SetNativeMethodPrefix announces a native-method prefix, gated by the
// CanSetNativeMethodPrefix capability (JVMTI 1.1 / JDK 1.6, Section II-B-e).
func (e *Env) SetNativeMethodPrefix(prefix string) error {
	e.mu.Lock()
	ok := e.caps.CanSetNativeMethodPrefix
	e.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: CanSetNativeMethodPrefix", ErrMissingCapability)
	}
	return e.vm.SetNativeMethodPrefix(prefix)
}

// GetJNIFunctionTable returns a copy of the JNI function table, indexed
// like jni.FunctionNames, for building interception wrappers around the
// original entries.
func (e *Env) GetJNIFunctionTable() (jni.Functions, error) {
	if e.jni == nil {
		return jni.Functions{}, errors.New("jvmti: no JNI layer attached")
	}
	return e.jni.Table().Snapshot(), nil
}

// SetJNIFunctionTable installs a whole replacement table, the JNI
// function interception feature of Section II-B-d.
func (e *Env) SetJNIFunctionTable(funcs jni.Functions) error {
	if e.jni == nil {
		return errors.New("jvmti: no JNI layer attached")
	}
	return e.jni.Table().Replace(funcs)
}

// SetThreadLocalStorage associates data with a thread, the analogue of the
// paper's ThreadLocalStorage.put(Thread, Object). Storage lives directly
// on the thread structure (as in a real JVM), so the get/set pair on
// every agent event handler is a plain field access instead of a locked
// map operation.
func (e *Env) SetThreadLocalStorage(t *vm.Thread, data any) {
	t.SetJVMTILocal(data)
}

// GetThreadLocalStorage returns the data associated with a thread, or nil.
func (e *Env) GetThreadLocalStorage(t *vm.Thread) any {
	return t.JVMTILocal()
}

// RawMonitor is the JVMTI synchronization aid the agents use to guard the
// global profiling statistics updated at thread termination.
type RawMonitor struct {
	name string
	mu   sync.Mutex
}

// CreateRawMonitor allocates a named raw monitor.
func (e *Env) CreateRawMonitor(name string) *RawMonitor {
	return &RawMonitor{name: name}
}

// Name returns the monitor's name.
func (m *RawMonitor) Name() string { return m.name }

// Enter acquires the monitor.
func (m *RawMonitor) Enter() { m.mu.Lock() }

// Exit releases the monitor.
func (m *RawMonitor) Exit() { m.mu.Unlock() }

// Timestamp reads the per-thread cycle counter, the PCL.getTimestamp(t) of
// the pseudo-code. It is exposed on the JVMTI Env for the agents'
// convenience; the underlying counters come from the PCL substitute in
// internal/cycles.
func (e *Env) Timestamp(t *vm.Thread) uint64 {
	// Equivalent to e.vm.Clock.Timestamp(t.ID()) for live threads (the
	// only threads agents may pass, since events fire on the thread
	// itself), but reads the thread's counter directly instead of taking
	// the registry lock — this sits on every SPA/IPA handler.
	return t.Cycles()
}

// Package recorder implements the trace-recording agent behind the
// scenario diversity engine's record/replay half: a JVMTI agent driven by
// MethodEntry/MethodExit that attributes each thread's self cycles (time
// inside a method excluding its callees) to the method's full name and
// counts its calls. The per-method profile is what the trace compiler
// (internal/scenarios/trace) turns a real program — ziptool, jdkapp —
// into a replayable phase-based scenario.
//
// Unlike SPA, whose job is to reproduce the paper's perturbation, the
// recorder's job is fidelity: its default handler cost is zero so the
// recorded trace reflects the uninstrumented program as closely as the
// event model allows.
package recorder

import (
	"sort"

	"repro/internal/classfile"
	"repro/internal/core"
	"repro/internal/jvmti"
	"repro/internal/vm"
)

// MethodStat is one recorded method's aggregate profile.
type MethodStat struct {
	// Name is the method's full name ("java/util/zip/Zip.deflate").
	Name string `json:"name"`
	// Native reports whether the method is implemented natively.
	Native bool `json:"native,omitempty"`
	// Calls is the number of recorded invocations.
	Calls uint64 `json:"calls"`
	// SelfCycles is the cycles spent inside the method itself, with
	// callee time attributed to the callees.
	SelfCycles uint64 `json:"selfCycles"`
}

// frame is one open activation on a recorded thread's shadow stack.
type frame struct {
	key    string
	native bool
	// enteredAt is the thread clock when the frame opened or when its
	// most recent callee returned — the start of the current self-span.
	enteredAt uint64
}

// threadContext is the recorder's per-thread state.
type threadContext struct {
	stack   []frame
	methods map[string]*MethodStat
	// rootCycles is self time attributed to code below the recorded
	// stack (the launcher, entries that predate attach); rootSince is
	// the thread clock when the stack last emptied, the start of the
	// current root span.
	rootCycles uint64
	rootSince  uint64
}

// Agent is the recording agent. A fresh Agent records one VM run.
type Agent struct {
	// HandlerCost is the per-event cost on the recorded thread; the
	// default of zero keeps the trace faithful.
	HandlerCost uint64
	// MaxEvents bounds the ordered event log; 0 disables event capture
	// entirely (the aggregate profile is always kept).
	MaxEvents int

	env     *jvmti.Env
	monitor *jvmti.RawMonitor

	// Guarded by the raw monitor once threads end.
	methods    map[string]*MethodStat
	rootCycles uint64
	events     []Event
	threads    int
	perThread  []core.ThreadStats
}

// Event is one entry of the bounded ordered event log, used by tests to
// assert call ordering.
type Event struct {
	// Enter is true for MethodEntry, false for MethodExit.
	Enter bool
	// Method is the full method name.
	Method string
	// Thread is the recorded thread's ID.
	Thread int
}

// New returns an unattached recorder.
func New() *Agent {
	return &Agent{methods: map[string]*MethodStat{}}
}

// Name implements core.Agent.
func (a *Agent) Name() string { return "recorder" }

// PrepareClasses implements core.Agent; the recorder rewrites nothing.
func (a *Agent) PrepareClasses(classes []*classfile.Class) ([]*classfile.Class, error) {
	return classes, nil
}

// OnLoad attaches the recorder: method events on every thread, like SPA.
func (a *Agent) OnLoad(env *jvmti.Env) error {
	a.env = env
	a.monitor = env.CreateRawMonitor("recorder-stats")
	env.AddCapabilities(jvmti.Capabilities{
		CanGenerateMethodEntryEvents: true,
		CanGenerateMethodExitEvents:  true,
	})
	env.SetEventCallbacks(jvmti.Callbacks{
		ThreadStart: a.threadStart,
		ThreadEnd:   a.threadEnd,
		MethodEntry: a.methodEntry,
		MethodExit:  a.methodExit,
	})
	for _, ev := range []jvmti.Event{
		jvmti.EventThreadStart, jvmti.EventThreadEnd,
		jvmti.EventMethodEntry, jvmti.EventMethodExit,
	} {
		if err := env.SetEventNotificationMode(true, ev); err != nil {
			return err
		}
	}
	return nil
}

func (a *Agent) handlerWork(t *vm.Thread) {
	if a.HandlerCost > 0 {
		t.AdvanceCycles(a.HandlerCost)
	}
}

// getContext allocates the thread context on demand — the JVMTI does not
// signal ThreadStart for the bootstrapping thread.
func (a *Agent) getContext(t *vm.Thread) *threadContext {
	if tc, ok := a.env.GetThreadLocalStorage(t).(*threadContext); ok {
		return tc
	}
	tc := &threadContext{methods: map[string]*MethodStat{}}
	a.env.SetThreadLocalStorage(t, tc)
	return tc
}

func (a *Agent) threadStart(env *jvmti.Env, t *vm.Thread) {
	a.handlerWork(t)
	env.SetThreadLocalStorage(t, &threadContext{methods: map[string]*MethodStat{}})
}

func (a *Agent) stat(tc *threadContext, key string, native bool) *MethodStat {
	s := tc.methods[key]
	if s == nil {
		s = &MethodStat{Name: key, Native: native}
		tc.methods[key] = s
	}
	return s
}

func (a *Agent) logEvent(t *vm.Thread, enter bool, method string) {
	if a.MaxEvents <= 0 {
		return
	}
	a.monitor.Enter()
	if len(a.events) < a.MaxEvents {
		a.events = append(a.events, Event{Enter: enter, Method: method, Thread: int(t.ID())})
	}
	a.monitor.Exit()
}

func (a *Agent) methodEntry(env *jvmti.Env, t *vm.Thread, m *vm.Method) {
	a.handlerWork(t)
	tc := a.getContext(t)
	now := env.Timestamp(t)
	// Close the caller's self-span.
	if n := len(tc.stack); n > 0 {
		top := &tc.stack[n-1]
		a.stat(tc, top.key, top.native).SelfCycles += now - top.enteredAt
	} else {
		tc.rootCycles += now - tc.rootSince
	}
	key := m.FullName()
	s := a.stat(tc, key, m.IsNative())
	s.Calls++
	tc.stack = append(tc.stack, frame{key: key, native: m.IsNative(), enteredAt: now})
	a.logEvent(t, true, key)
}

func (a *Agent) methodExit(env *jvmti.Env, t *vm.Thread, m *vm.Method) {
	a.handlerWork(t)
	tc := a.getContext(t)
	if len(tc.stack) == 0 {
		// Exit without matching entry: the entry predated attach.
		return
	}
	now := env.Timestamp(t)
	top := tc.stack[len(tc.stack)-1]
	tc.stack = tc.stack[:len(tc.stack)-1]
	a.stat(tc, top.key, top.native).SelfCycles += now - top.enteredAt
	// The caller's self-span resumes now, or the root span when the
	// stack emptied.
	if n := len(tc.stack); n > 0 {
		tc.stack[n-1].enteredAt = now
	} else {
		tc.rootSince = now
	}
	a.logEvent(t, false, top.key)
}

func (a *Agent) threadEnd(env *jvmti.Env, t *vm.Thread) {
	a.handlerWork(t)
	tc := a.getContext(t)
	now := env.Timestamp(t)
	// Close every still-open frame (abrupt completion).
	for n := len(tc.stack); n > 0; n = len(tc.stack) {
		top := tc.stack[n-1]
		tc.stack = tc.stack[:n-1]
		a.stat(tc, top.key, top.native).SelfCycles += now - top.enteredAt
	}
	var bc, nat, natCalls uint64
	for _, s := range tc.methods {
		if s.Native {
			nat += s.SelfCycles
			natCalls += s.Calls
		} else {
			bc += s.SelfCycles
		}
	}
	a.monitor.Enter()
	for key, s := range tc.methods {
		tot := a.methods[key]
		if tot == nil {
			tot = &MethodStat{Name: s.Name, Native: s.Native}
			a.methods[key] = tot
		}
		tot.Calls += s.Calls
		tot.SelfCycles += s.SelfCycles
	}
	a.rootCycles += tc.rootCycles
	a.threads++
	a.perThread = append(a.perThread, core.ThreadStats{
		ThreadID:          t.ID(),
		Name:              t.Name(),
		BytecodeCycles:    bc,
		NativeCycles:      nat,
		NativeMethodCalls: natCalls,
	})
	a.monitor.Exit()
}

// Stats returns the recorded per-method profile sorted by descending self
// cycles, ties broken by name — a deterministic order for the compiler
// and the tests.
func (a *Agent) Stats() []MethodStat {
	a.monitor.Enter()
	defer a.monitor.Exit()
	out := make([]MethodStat, 0, len(a.methods))
	for _, s := range a.methods {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfCycles != out[j].SelfCycles {
			return out[i].SelfCycles > out[j].SelfCycles
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Events returns the bounded ordered event log (empty unless MaxEvents
// was set before the run).
func (a *Agent) Events() []Event {
	a.monitor.Enter()
	defer a.monitor.Exit()
	return append([]Event(nil), a.events...)
}

// RootCycles returns the cycles attributed below the recorded stacks
// (launcher code).
func (a *Agent) RootCycles() uint64 {
	a.monitor.Enter()
	defer a.monitor.Exit()
	return a.rootCycles
}

// Report implements core.Agent: the aggregate self-cycle split by
// implementation type.
func (a *Agent) Report() *core.Report {
	a.monitor.Enter()
	defer a.monitor.Exit()
	r := &core.Report{AgentName: a.Name(),
		PerThread: append([]core.ThreadStats(nil), a.perThread...)}
	for _, s := range a.methods {
		if s.Native {
			r.TotalNativeCycles += s.SelfCycles
			r.NativeMethodCalls += s.Calls
		} else {
			r.TotalBytecodeCycles += s.SelfCycles
		}
	}
	return r
}

// Package spa implements the Simple Profiling Agent of Section III
// (Figure 1): a JVMTI agent driven by the MethodEntry and MethodExit
// events that reifies each thread's execution stack as a stack of
// implementation-type booleans and reads the per-thread cycle counter only
// on transitions between bytecode and native code.
//
// SPA is deliberately faithful to the paper, including its fatal flaw:
// enabling MethodEntry/MethodExit prevents JIT compilation and each event
// costs a dispatch, so the agent's overhead is in the thousands of
// percent (Table I) and its measurements are strongly perturbed.
package spa

import (
	"repro/internal/classfile"
	"repro/internal/core"
	"repro/internal/jvmti"
	"repro/internal/vm"
)

// HandlerCost is the default number of cycles one SPA event handler
// consumes on the profiled thread (thread-local lookup, stack bookkeeping,
// occasional counter read). It models the measurement perturbation of the
// real agent's C handler code.
const HandlerCost = 400

// threadContext is TC_SPA from Figure 1.
type threadContext struct {
	timestamp    uint64
	timeBytecode uint64
	timeNative   uint64
	// stack reifies the thread's frames: true = native method. sp is
	// implicit in len(stack).
	stack []bool
	// invocation counters kept for the report (the paper's SPA reports
	// only times; the counters cost nothing extra here).
	nativeCalls uint64
	name        string
	id          int32
}

// Agent is the SPA profiling agent. A fresh Agent profiles one VM run.
type Agent struct {
	// HandlerCost overrides the per-event handler cost when non-zero.
	HandlerCost uint64

	env     *jvmti.Env
	monitor *jvmti.RawMonitor

	// The totals are guarded by the raw monitor, as in Figure 1.
	totalTimeBytecode uint64
	totalTimeNative   uint64
	totalNativeCalls  uint64
	perThread         []core.ThreadStats
}

// New returns an unattached SPA agent.
func New() *Agent {
	return &Agent{HandlerCost: HandlerCost}
}

// Name implements core.Agent.
func (a *Agent) Name() string { return "SPA" }

// PrepareClasses implements core.Agent. SPA performs no instrumentation.
func (a *Agent) PrepareClasses(classes []*classfile.Class) ([]*classfile.Class, error) {
	return classes, nil
}

// OnLoad attaches SPA to the JVMTI environment: it requests the method
// event capabilities and enables the ThreadStart, ThreadEnd, MethodEntry,
// MethodExit and VMDeath events (the constructor comment of Figure 1).
func (a *Agent) OnLoad(env *jvmti.Env) error {
	a.env = env
	a.monitor = env.CreateRawMonitor("SPA-stats")
	env.AddCapabilities(jvmti.Capabilities{
		CanGenerateMethodEntryEvents: true,
		CanGenerateMethodExitEvents:  true,
	})
	env.SetEventCallbacks(jvmti.Callbacks{
		ThreadStart: a.threadStart,
		ThreadEnd:   a.threadEnd,
		MethodEntry: a.methodEntry,
		MethodExit:  a.methodExit,
		VMDeath:     a.vmDeath,
	})
	for _, ev := range []jvmti.Event{
		jvmti.EventThreadStart, jvmti.EventThreadEnd,
		jvmti.EventMethodEntry, jvmti.EventMethodExit,
		jvmti.EventVMDeath,
	} {
		if err := env.SetEventNotificationMode(true, ev); err != nil {
			return err
		}
	}
	return nil
}

// handlerWork models the handler's own execution cost on the profiled
// thread — the perturbation source.
func (a *Agent) handlerWork(t *vm.Thread) {
	if a.HandlerCost > 0 {
		t.AdvanceCycles(a.HandlerCost)
	}
}

// getContext is GetThreadLocalStorage from Figure 1: the thread context is
// allocated on demand because the JVMTI does not signal ThreadStart for
// the bootstrapping thread.
func (a *Agent) getContext(t *vm.Thread) *threadContext {
	if tc, ok := a.env.GetThreadLocalStorage(t).(*threadContext); ok {
		return tc
	}
	tc := &threadContext{
		timestamp: a.env.Timestamp(t),
		name:      t.Name(),
		id:        int32(t.ID()),
	}
	a.env.SetThreadLocalStorage(t, tc)
	return tc
}

func (a *Agent) threadStart(env *jvmti.Env, t *vm.Thread) {
	a.handlerWork(t)
	env.SetThreadLocalStorage(t, &threadContext{
		timestamp: env.Timestamp(t),
		name:      t.Name(),
		id:        int32(t.ID()),
	})
}

func (a *Agent) methodEntry(env *jvmti.Env, t *vm.Thread, m *vm.Method) {
	a.handlerWork(t)
	tc := a.getContext(t)
	isNativeM := m.IsNative()
	// We assume each thread initially executes native code (Section III).
	isNativeCaller := true
	if n := len(tc.stack); n > 0 {
		isNativeCaller = tc.stack[n-1]
	}
	if isNativeM != isNativeCaller {
		now := env.Timestamp(t)
		delta := now - tc.timestamp
		if isNativeCaller {
			tc.timeNative += delta
		} else {
			tc.timeBytecode += delta
		}
		tc.timestamp = now
	}
	tc.stack = append(tc.stack, isNativeM)
	if isNativeM {
		tc.nativeCalls++
	}
}

func (a *Agent) methodExit(env *jvmti.Env, t *vm.Thread, m *vm.Method) {
	a.handlerWork(t)
	tc := a.getContext(t)
	if len(tc.stack) == 0 {
		// Exit without matching entry: the entry predated agent attach.
		return
	}
	isNativeM := tc.stack[len(tc.stack)-1] // method being left (== m.IsNative())
	tc.stack = tc.stack[:len(tc.stack)-1]
	isNativeCaller := true
	if n := len(tc.stack); n > 0 {
		isNativeCaller = tc.stack[n-1]
	}
	if isNativeM != isNativeCaller {
		now := env.Timestamp(t)
		delta := now - tc.timestamp
		if isNativeM {
			tc.timeNative += delta
		} else {
			tc.timeBytecode += delta
		}
		tc.timestamp = now
	}
}

func (a *Agent) threadEnd(env *jvmti.Env, t *vm.Thread) {
	a.handlerWork(t)
	tc := a.getContext(t)
	inNative := true
	if n := len(tc.stack); n > 0 {
		inNative = tc.stack[n-1]
	}
	delta := env.Timestamp(t) - tc.timestamp
	if inNative {
		tc.timeNative += delta
	} else {
		tc.timeBytecode += delta
	}
	// Update the overall statistics under the raw monitor (Figure 1's
	// synchronized block).
	a.monitor.Enter()
	a.totalTimeBytecode += tc.timeBytecode
	a.totalTimeNative += tc.timeNative
	a.totalNativeCalls += tc.nativeCalls
	a.perThread = append(a.perThread, core.ThreadStats{
		ThreadID:          t.ID(),
		Name:              tc.name,
		BytecodeCycles:    tc.timeBytecode,
		NativeCycles:      tc.timeNative,
		NativeMethodCalls: tc.nativeCalls,
	})
	a.monitor.Exit()
}

func (a *Agent) vmDeath(env *jvmti.Env) {
	// Figure 1 prints the statistics here; this implementation exposes
	// them via Report instead.
}

// Report implements core.Agent.
func (a *Agent) Report() *core.Report {
	a.monitor.Enter()
	defer a.monitor.Exit()
	r := &core.Report{
		AgentName:           a.Name(),
		TotalBytecodeCycles: a.totalTimeBytecode,
		TotalNativeCycles:   a.totalTimeNative,
		NativeMethodCalls:   a.totalNativeCalls,
		PerThread:           append([]core.ThreadStats(nil), a.perThread...),
	}
	return r
}

// Package ipa implements the Improved Profiling Agent of Section IV
// (Figure 3). Unlike SPA it never enables the JIT-killing MethodEntry and
// MethodExit events; measurement code runs only on transitions between
// bytecode and native code:
//
//   - N2J transitions (native code invoking a Java method) are caught by
//     intercepting all 90 JNI method-invocation functions and bracketing
//     the original call with N2J_Begin/N2J_End;
//   - J2N transitions (bytecode invoking a native method) are caught by
//     the static instrumenter's wrapper methods (Figure 2), which call the
//     agent's J2N_Begin/J2N_End transition routines, declared as static
//     native methods on a runtime support class that is itself excluded
//     from instrumentation.
//
// The agent compensates timestamps for the average execution cost of its
// own wrappers (the last paragraph of Section IV) so wrapper time is
// excluded from the reported statistics.
package ipa

import (
	"fmt"
	"sort"

	"repro/internal/classfile"
	"repro/internal/core"
	"repro/internal/cycles"
	"repro/internal/instrument"
	"repro/internal/jni"
	"repro/internal/jvmti"
	"repro/internal/vm"
)

// WrapperCost is the default cycle cost of one transition routine
// (timestamp read plus thread-local update in the real agent's C code).
// It is deliberately small: the transition routines are short, branch-free
// C functions; the dominant per-transition cost is the native-call
// machinery itself.
const WrapperCost = 10

// threadContext is TC_IPA from Figure 3.
type threadContext struct {
	timestamp    uint64
	timeBytecode uint64
	timeNative   uint64
	// inNative starts true: a thread begins execution in native code
	// (the launcher), and the initial JNI invocation of its entry method
	// flips it to false.
	inNative bool

	jniCalls    uint64
	nativeCalls uint64
	name        string
	id          cycles.ThreadID

	// Per-method attribution state (Config.PerMethod): the stack of
	// method ids currently on the native side, and this thread's
	// accumulated per-method statistics.
	midStack  []int64
	perMethod map[int64]*methodAccum
}

// methodAccum collects one native method's statistics on one thread.
type methodAccum struct {
	calls  uint64
	cycles uint64
}

// MethodTime is one row of the per-method breakdown.
type MethodTime struct {
	// Name is the fully qualified native method name.
	Name string
	// Calls counts invocations through the wrapper.
	Calls uint64
	// Cycles is the native time attributed to the method, wrapper cost
	// compensated.
	Cycles uint64
}

// Config parameterizes the agent.
type Config struct {
	// Prefix for native-method renaming; instrument.DefaultPrefix if "".
	Prefix string
	// RuntimeClass for transition signals; instrument.DefaultRuntimeClass
	// if "".
	RuntimeClass string
	// WrapperCost is the modelled cycle cost of each transition routine.
	WrapperCost uint64
	// Compensate subtracts the average wrapper cost from measured deltas,
	// reproducing the timestamp adjustment of Section IV. The ablation
	// benchmark toggles it.
	Compensate bool
	// Dynamic switches from static (ahead-of-time) instrumentation to
	// load-time instrumentation via the ClassFileLoadHook — the
	// alternative deployment mode discussed in Section IV.
	Dynamic bool
	// PerMethod switches the wrappers to method-identified transition
	// signals so the agent can attribute native time to individual
	// native methods — the refinement that answers "which native method
	// costs the time".
	PerMethod bool
}

func (c Config) withDefaults() Config {
	if c.Prefix == "" {
		c.Prefix = instrument.DefaultPrefix
	}
	if c.RuntimeClass == "" {
		c.RuntimeClass = instrument.DefaultRuntimeClass
	}
	if c.WrapperCost == 0 {
		c.WrapperCost = WrapperCost
	}
	return c
}

// Agent is the IPA profiling agent. A fresh Agent profiles one VM run.
type Agent struct {
	cfg      Config
	env      *jvmti.Env
	comp     cycles.Compensator
	registry *instrument.Registry

	monitor *jvmti.RawMonitor
	// Guarded by monitor:
	totalTimeBytecode uint64
	totalTimeNative   uint64
	totalJNICalls     uint64
	totalNativeCalls  uint64
	perThread         []core.ThreadStats
	perMethod         map[int64]*methodAccum
}

// New returns an unattached IPA agent with compensation enabled, the
// configuration evaluated in the paper.
func New() *Agent {
	return NewWithConfig(Config{Compensate: true})
}

// NewWithConfig returns an unattached IPA agent with explicit settings.
func NewWithConfig(cfg Config) *Agent {
	a := &Agent{cfg: cfg.withDefaults(), perMethod: make(map[int64]*methodAccum)}
	if a.cfg.PerMethod {
		a.registry = instrument.NewRegistry()
	}
	return a
}

// Name implements core.Agent.
func (a *Agent) Name() string { return "IPA" }

// Config returns the agent's effective configuration.
func (a *Agent) Config() Config { return a.cfg }

// PrepareClasses performs the static instrumentation pass over the
// application classes (including, in the paper, the JDK's rt.jar). With
// Dynamic set, classes pass through untouched and the ClassFileLoadHook
// rewrites them at load time instead.
func (a *Agent) PrepareClasses(classes []*classfile.Class) ([]*classfile.Class, error) {
	if a.cfg.Dynamic {
		return classes, nil
	}
	out, _, err := instrument.Classes(classes, a.instrumentConfig())
	return out, err
}

func (a *Agent) instrumentConfig() instrument.Config {
	return instrument.Config{
		Prefix:       a.cfg.Prefix,
		RuntimeClass: a.cfg.RuntimeClass,
		Methods:      a.registry,
	}
}

// OnLoad attaches IPA: thread events only (no method events), native
// method prefixing, the runtime support class with its four native
// transition routines, and interception wrappers around all 90 JNI method
// invocation functions.
func (a *Agent) OnLoad(env *jvmti.Env) error {
	a.env = env
	a.monitor = env.CreateRawMonitor("IPA-stats")
	if a.cfg.Compensate {
		// The average cost of one wrapper leg as observed between two
		// timestamp reads: the transition routine's own work, the
		// native-call overhead of reaching it, and the invocation
		// overheads of the transition-signal call and of the renamed
		// native method inside the wrapper. This mirrors the paper's
		// calibration of "the average execution time of the
		// corresponding wrapper". Without Compensate the zero
		// compensator subtracts nothing.
		opts := env.VM().Options()
		a.comp = cycles.NewFixedCompensator(
			a.cfg.WrapperCost + opts.CostNativeCall + 2*opts.CostInvoke)
	}

	env.AddCapabilities(jvmti.Capabilities{
		CanSetNativeMethodPrefix:      true,
		CanGenerateAllClassHookEvents: true,
	})
	env.SetEventCallbacks(jvmti.Callbacks{
		ThreadStart:       a.threadStart,
		ThreadEnd:         a.threadEnd,
		VMDeath:           a.vmDeath,
		ClassFileLoadHook: a.classFileLoad,
	})
	events := []jvmti.Event{jvmti.EventThreadStart, jvmti.EventThreadEnd, jvmti.EventVMDeath}
	if a.cfg.Dynamic {
		events = append(events, jvmti.EventClassFileLoadHook)
	}
	for _, ev := range events {
		if err := env.SetEventNotificationMode(true, ev); err != nil {
			return err
		}
	}
	if err := env.SetNativeMethodPrefix(a.cfg.Prefix); err != nil {
		return err
	}
	if err := a.loadRuntimeClass(env.VM()); err != nil {
		return err
	}
	return a.interceptJNI(env)
}

// loadRuntimeClass links the support class and registers the transition
// routines as its native implementations.
func (a *Agent) loadRuntimeClass(v *vm.VM) error {
	if _, err := v.LoadClass(instrument.RuntimeClassDef(a.instrumentConfig())); err != nil {
		return err
	}
	rt := a.cfg.RuntimeClass
	regs := map[string]func(t *vm.Thread){
		instrument.J2NBegin: a.j2nBegin,
		instrument.J2NEnd:   a.j2nEnd,
		"N2J_Begin":         a.n2jBegin,
		"N2J_End":           a.n2jEnd,
	}
	for name, fn := range regs {
		routine := fn
		err := v.RegisterNative(rt, name, "()V", func(env vm.Env, args []int64) (int64, error) {
			// The routine's own execution cost advances the thread's
			// counter (it perturbs measurements exactly like the real
			// agent's C code) but is attributed to profiling overhead in
			// the engine's ground truth, not to application native time.
			env.Thread().AdvanceCycles(a.cfg.WrapperCost)
			routine(env.Thread())
			return 0, nil
		})
		if err != nil {
			return fmt.Errorf("ipa: registering %s: %w", name, err)
		}
	}
	// Method-identified variants, used by PerMethod wrappers.
	regsM := map[string]func(t *vm.Thread, id int64){
		instrument.J2NBeginM: a.j2nBeginM,
		instrument.J2NEndM:   a.j2nEndM,
	}
	for name, fn := range regsM {
		routine := fn
		err := v.RegisterNative(rt, name, "(J)V", func(env vm.Env, args []int64) (int64, error) {
			env.Thread().AdvanceCycles(a.cfg.WrapperCost)
			routine(env.Thread(), args[0])
			return 0, nil
		})
		if err != nil {
			return fmt.Errorf("ipa: registering %s: %w", name, err)
		}
	}
	return nil
}

// interceptJNI wraps all 90 JNI method-invocation functions (Section IV).
func (a *Agent) interceptJNI(env *jvmti.Env) error {
	orig, err := env.GetJNIFunctionTable()
	if err != nil {
		return err
	}
	entries := make(map[string]jni.Func, len(orig))
	for _, name := range jni.FunctionNames() {
		o, ok := orig[name]
		if !ok {
			return fmt.Errorf("ipa: function table misses %s", name)
		}
		oo := o
		// N2J_Begin, the call and N2J_End on one thread context.
		entries[name] = func(jenv *jni.Env, call *jni.Call) (int64, error) {
			t := jenv.Thread()
			t.AdvanceCycles(a.cfg.WrapperCost)
			tc := a.getContext(t)
			a.closeNativeInterval(t, tc)
			tc.jniCalls++
			r, err := oo(jenv, call)
			t.AdvanceCycles(a.cfg.WrapperCost)
			a.closeBytecodeInterval(t, tc)
			return r, err
		}
	}
	return env.SetJNIFunctionTable(entries)
}

// getContext allocates the thread context on demand; the bootstrapping
// thread receives no ThreadStart event.
func (a *Agent) getContext(t *vm.Thread) *threadContext {
	if tc, ok := a.env.GetThreadLocalStorage(t).(*threadContext); ok {
		return tc
	}
	tc := &threadContext{
		timestamp: a.env.Timestamp(t),
		inNative:  true,
		name:      t.Name(),
		id:        t.ID(),
		perMethod: make(map[int64]*methodAccum),
	}
	a.env.SetThreadLocalStorage(t, tc)
	return tc
}

func (a *Agent) threadStart(env *jvmti.Env, t *vm.Thread) {
	env.SetThreadLocalStorage(t, &threadContext{
		timestamp: env.Timestamp(t),
		inNative:  true,
		name:      t.Name(),
		id:        t.ID(),
		perMethod: make(map[int64]*methodAccum),
	})
}

func (a *Agent) threadEnd(env *jvmti.Env, t *vm.Thread) {
	tc := a.getContext(t)
	delta := env.Timestamp(t) - tc.timestamp
	if tc.inNative {
		tc.timeNative += delta
	} else {
		tc.timeBytecode += delta
	}
	a.monitor.Enter()
	a.totalTimeBytecode += tc.timeBytecode
	a.totalTimeNative += tc.timeNative
	a.totalJNICalls += tc.jniCalls
	a.totalNativeCalls += tc.nativeCalls
	for id, acc := range tc.perMethod {
		m, ok := a.perMethod[id]
		if !ok {
			m = &methodAccum{}
			a.perMethod[id] = m
		}
		m.calls += acc.calls
		m.cycles += acc.cycles
	}
	a.perThread = append(a.perThread, core.ThreadStats{
		ThreadID:          tc.id,
		Name:              tc.name,
		BytecodeCycles:    tc.timeBytecode,
		NativeCycles:      tc.timeNative,
		JNICalls:          tc.jniCalls,
		NativeMethodCalls: tc.nativeCalls,
	})
	a.monitor.Exit()
}

func (a *Agent) vmDeath(env *jvmti.Env) {
	// Statistics are exposed via Report.
}

func (a *Agent) classFileLoad(env *jvmti.Env, c *classfile.Class) *classfile.Class {
	rewritten, wrapped, err := instrument.Class(c, a.instrumentConfig())
	if err != nil || wrapped == 0 {
		return nil
	}
	return rewritten
}

// Transition routines (Figure 3). The elapsed interval since the previous
// timestamp belongs to the side being left; the compensator removes the
// average wrapper cost from it.

// j2nBegin: bytecode is calling a native method; the elapsed interval was
// bytecode execution.
func (a *Agent) j2nBegin(t *vm.Thread) {
	tc := a.getContext(t)
	a.closeBytecodeInterval(t, tc)
	tc.nativeCalls++
}

// closeBytecodeInterval books the elapsed bytecode interval; the thread
// is entering (or returning to) native code.
func (a *Agent) closeBytecodeInterval(t *vm.Thread, tc *threadContext) {
	now := a.env.Timestamp(t)
	tc.timeBytecode += a.comp.Compensate(now - tc.timestamp)
	tc.timestamp = now
	tc.inNative = true
}

// closeNativeInterval books the elapsed native interval, attributing it
// to the method currently on top of the per-method stack when the agent
// runs in PerMethod mode.
func (a *Agent) closeNativeInterval(t *vm.Thread, tc *threadContext) {
	now := a.env.Timestamp(t)
	delta := a.comp.Compensate(now - tc.timestamp)
	tc.timeNative += delta
	tc.timestamp = now
	tc.inNative = false
	if n := len(tc.midStack); n > 0 && delta > 0 {
		id := tc.midStack[n-1]
		acc, ok := tc.perMethod[id]
		if !ok {
			acc = &methodAccum{}
			tc.perMethod[id] = acc
		}
		acc.cycles += delta
	}
}

// j2nEnd: the native method returned; the elapsed interval was native
// execution. Figure 3 defines J2N_End() as N2J_Begin() minus the call
// counting.
func (a *Agent) j2nEnd(t *vm.Thread) {
	a.closeNativeInterval(t, a.getContext(t))
}

// n2jBegin: native code is invoking a Java method; the elapsed interval
// was native execution.
func (a *Agent) n2jBegin(t *vm.Thread) {
	a.closeNativeInterval(t, a.getContext(t))
}

// j2nBeginM is the method-identified J2N entry signal: Figure 2's wrapper
// passes the wrapped method's id so native time can be attributed.
func (a *Agent) j2nBeginM(t *vm.Thread, id int64) {
	tc := a.getContext(t)
	a.j2nBegin(t)
	tc.midStack = append(tc.midStack, id)
	acc, ok := tc.perMethod[id]
	if !ok {
		acc = &methodAccum{}
		tc.perMethod[id] = acc
	}
	acc.calls++
}

// j2nEndM closes the method-identified native interval and pops the
// method stack.
func (a *Agent) j2nEndM(t *vm.Thread, id int64) {
	tc := a.getContext(t)
	a.closeNativeInterval(t, tc)
	if n := len(tc.midStack); n > 0 {
		tc.midStack = tc.midStack[:n-1]
	}
}

// n2jEnd: the Java method returned to native code; the elapsed interval
// was bytecode execution.
func (a *Agent) n2jEnd(t *vm.Thread) {
	a.closeBytecodeInterval(t, a.getContext(t))
}

// Report implements core.Agent.
func (a *Agent) Report() *core.Report {
	a.monitor.Enter()
	defer a.monitor.Exit()
	return &core.Report{
		AgentName:           a.Name(),
		TotalBytecodeCycles: a.totalTimeBytecode,
		TotalNativeCycles:   a.totalTimeNative,
		JNICalls:            a.totalJNICalls,
		NativeMethodCalls:   a.totalNativeCalls,
		PerThread:           append([]core.ThreadStats(nil), a.perThread...),
	}
}

// MethodTimes returns the per-native-method breakdown collected in
// PerMethod mode, hottest first. Without PerMethod it returns nil.
func (a *Agent) MethodTimes() []MethodTime {
	if a.registry == nil {
		return nil
	}
	a.monitor.Enter()
	defer a.monitor.Exit()
	out := make([]MethodTime, 0, len(a.perMethod))
	for id, acc := range a.perMethod {
		out = append(out, MethodTime{
			Name:   a.registry.Name(id),
			Calls:  acc.calls,
			Cycles: acc.cycles,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cycles != out[j].Cycles {
			return out[i].Cycles > out[j].Cycles
		}
		return out[i].Name < out[j].Name
	})
	return out
}

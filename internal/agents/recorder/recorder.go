// Package recorder implements the method-event profiler behind two
// registry names. Driven by MethodEntry/MethodExit, it builds each
// thread's calling context tree (Ammons, Ball & Larus, PLDI 1997): one
// node per distinct stack of methods, Java and native frames mixed,
// holding that context's calls and self cycles (time with exactly that
// stack, callees excluded). At ThreadEnd the tree folds into two views:
//
//   - per-method rows (Stats): self cycles and calls by full method
//     name, which the trace compiler (internal/scenarios/trace) turns a
//     real program — ziptool, jdkapp — into a replayable scenario;
//   - per-chain rows (Chains): the extension sketched in the paper's
//     conclusion, "tracking complete call chains including a mix of Java
//     and native methods", which neither Java-only nor system-specific
//     profilers can do because neither sees both kinds of stack frames.
//
// Like SPA the agent pays the method-event price (JIT disabled, dispatch
// per event). New is the recorder, whose job is fidelity: its handler
// costs nothing, so the trace reflects the uninstrumented program as
// closely as the event model allows. NewChains is the chain tracker,
// which models a real handler's per-event cost.
package recorder

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/classfile"
	"repro/internal/core"
	"repro/internal/jvmti"
	"repro/internal/vm"
)

// ChainsHandlerCost models the per-event cost of the chain-tracking
// handler.
const ChainsHandlerCost = 450

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

// ChainStat aggregates one distinct mixed call chain.
type ChainStat struct {
	// Chain is the rendered chain of short method names, root first,
	// native frames marked with a trailing '*', e.g.
	// "main > nwork* > callback".
	Chain string
	// Calls is how many times the chain was entered (its leaf invoked
	// with exactly this stack).
	Calls uint64
	// ExclusiveCycles is time spent with exactly this chain on the
	// stack (leaf running, no deeper call).
	ExclusiveCycles uint64
	// Mixed is true if the chain contains both Java and native frames.
	Mixed bool
	// Depth is the number of frames.
	Depth int
}

// node is one calling context: a method reached through exactly the
// stack of its ancestors. The root has no method and holds the time the
// thread spends with an empty recorded stack (the launcher, entries
// that predate attach).
type node struct {
	parent   *node
	method   *vm.Method
	calls    uint64
	self     uint64
	children []*node
}

// child returns the context m opens under n, creating it on first use.
func (n *node) child(m *vm.Method) *node {
	for _, c := range n.children {
		if c.method == m {
			return c
		}
	}
	c := &node{parent: n, method: m}
	n.children = append(n.children, c)
	return c
}

// threadState is one thread's tree: cursor is the context on top of the
// stack, last the thread clock when its current self-span began.
type threadState struct {
	root   node
	cursor *node
	last   uint64
}

// charge books the span since the last event to the cursor's context.
func (s *threadState) charge(now uint64) {
	s.cursor.self += now - s.last
	s.last = now
}

// Agent is the calling-context-tree profiler. A fresh Agent profiles one
// VM run.
type Agent struct {
	// HandlerCost is the per-event cost on the profiled thread.
	HandlerCost uint64

	name    string
	env     *jvmti.Env
	monitor *jvmti.RawMonitor

	// Guarded by the raw monitor once threads end.
	methods    map[string]*MethodStat
	chains     map[string]*ChainStat
	rootCycles uint64
	perThread  []core.ThreadStats
}

// New returns an unattached recorder: no handler cost, reported as
// "recorder".
func New() *Agent { return newAgent("recorder", 0) }

// NewChains returns an unattached chain tracker: ChainsHandlerCost per
// event, reported as "CHAINS".
func NewChains() *Agent { return newAgent("CHAINS", ChainsHandlerCost) }

func newAgent(name string, cost uint64) *Agent {
	return &Agent{HandlerCost: cost, name: name,
		methods: map[string]*MethodStat{}, chains: map[string]*ChainStat{}}
}

// Name implements core.Agent.
func (a *Agent) Name() string { return a.name }

// PrepareClasses implements core.Agent; the agent rewrites nothing.
func (a *Agent) PrepareClasses(classes []*classfile.Class) ([]*classfile.Class, error) {
	return classes, nil
}

// OnLoad attaches the agent: method events on every thread, like SPA.
func (a *Agent) OnLoad(env *jvmti.Env) error {
	a.env = env
	a.monitor = env.CreateRawMonitor(a.name + "-stats")
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

// event pays the handler cost and returns the thread's state with the
// span up to now booked to the cursor.
func (a *Agent) event(t *vm.Thread) *threadState {
	if a.HandlerCost > 0 {
		t.AdvanceCycles(a.HandlerCost)
	}
	s := a.state(t)
	s.charge(a.env.Timestamp(t))
	return s
}

// state allocates the thread's tree on demand — the JVMTI does not
// signal ThreadStart for the bootstrapping thread. The root span starts
// at cycle 0.
func (a *Agent) state(t *vm.Thread) *threadState {
	if s, ok := a.env.GetThreadLocalStorage(t).(*threadState); ok {
		return s
	}
	s := &threadState{}
	s.cursor = &s.root
	a.env.SetThreadLocalStorage(t, s)
	return s
}

func (a *Agent) threadStart(env *jvmti.Env, t *vm.Thread) { a.event(t) }

func (a *Agent) methodEntry(env *jvmti.Env, t *vm.Thread, m *vm.Method) {
	s := a.event(t)
	s.cursor = s.cursor.child(m)
	s.cursor.calls++
}

func (a *Agent) methodExit(env *jvmti.Env, t *vm.Thread, m *vm.Method) {
	s := a.event(t)
	// An exit on the empty stack matches an entry that predated attach.
	if s.cursor.parent != nil {
		s.cursor = s.cursor.parent
	}
}

// threadEnd closes the open span and folds the thread's tree into the
// per-method and per-chain views.
func (a *Agent) threadEnd(env *jvmti.Env, t *vm.Thread) {
	s := a.event(t)
	ts := core.ThreadStats{ThreadID: t.ID(), Name: t.Name()}
	a.monitor.Enter()
	defer a.monitor.Exit()
	for _, c := range s.root.children {
		a.fold(c, "", 1, false, false, &ts)
	}
	a.rootCycles += s.root.self
	a.perThread = append(a.perThread, ts)
}

// fold merges the context n, whose caller chain renders as prefix, and
// its subtree into the agent's views. sawJava and sawNative record the
// frame kinds above n.
func (a *Agent) fold(n *node, prefix string, depth int, sawJava, sawNative bool, ts *core.ThreadStats) {
	native := n.method.IsNative()
	chain := n.method.Name()
	if native {
		chain += "*"
		sawNative = true
		ts.NativeCycles += n.self
		ts.NativeMethodCalls += n.calls
	} else {
		sawJava = true
		ts.BytecodeCycles += n.self
	}
	if prefix != "" {
		chain = prefix + " > " + chain
	}
	full := n.method.FullName()
	ms := a.methods[full]
	if ms == nil {
		ms = &MethodStat{Name: full, Native: native}
		a.methods[full] = ms
	}
	ms.Calls += n.calls
	ms.SelfCycles += n.self
	cs := a.chains[chain]
	if cs == nil {
		cs = &ChainStat{Chain: chain, Mixed: sawJava && sawNative, Depth: depth}
		a.chains[chain] = cs
	}
	cs.Calls += n.calls
	cs.ExclusiveCycles += n.self
	for _, c := range n.children {
		a.fold(c, chain, depth+1, sawJava, sawNative, ts)
	}
}

// Stats returns the per-method profile sorted by descending self
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

// Chains returns every observed chain, hottest (by exclusive cycles)
// first, ties broken by chain.
func (a *Agent) Chains() []ChainStat {
	a.monitor.Enter()
	defer a.monitor.Exit()
	out := make([]ChainStat, 0, len(a.chains))
	for _, cs := range a.chains {
		out = append(out, *cs)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ExclusiveCycles != out[j].ExclusiveCycles {
			return out[i].ExclusiveCycles > out[j].ExclusiveCycles
		}
		return out[i].Chain < out[j].Chain
	})
	return out
}

// MixedChains returns only the chains crossing the Java/native boundary —
// the profile no Java-only or system-only tool can produce.
func (a *Agent) MixedChains() []ChainStat {
	var out []ChainStat
	for _, cs := range a.Chains() {
		if cs.Mixed {
			out = append(out, cs)
		}
	}
	return out
}

// RenderTop formats the n hottest chains.
func (a *Agent) RenderTop(n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %12s  %s\n", "cycles", "calls", "chain (native frames marked *)")
	for i, cs := range a.Chains() {
		if i >= n {
			break
		}
		fmt.Fprintf(&b, "%-12d %12d  %s\n", cs.ExclusiveCycles, cs.Calls, cs.Chain)
	}
	return b.String()
}

// RootCycles returns the cycles the threads spent with an empty recorded
// stack (launcher code).
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
	r := &core.Report{AgentName: a.name,
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

// Package core is the public API of the reproduction: it wires a simulated
// JVM, its JNI and JVMTI layers, a profiling agent and a workload program
// together, runs the program, and returns the profiling report.
//
// The package corresponds to the deployment glue of the paper's system —
// the part that starts a JVM with -agentlib and -Xbootclasspath/p: options.
// Everything an external user needs is reachable from here: implement
// Agent (or use the provided SPA/IPA agents), describe a Program, and call
// Run.
package core

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/classfile"
	"repro/internal/cycles"
	"repro/internal/jit"
	"repro/internal/jni"
	"repro/internal/jvmti"
	"repro/internal/vm"
)

// Agent is a profiling agent in the sense of the paper: a component that
// attaches to the JVM through the JVMTI and optionally instruments classes
// ahead of time.
type Agent interface {
	// Name identifies the agent ("SPA", "IPA", ...).
	Name() string
	// PrepareClasses performs static (ahead-of-time) instrumentation of
	// the application classes. Agents without an instrumentation step
	// return the input unchanged. The input must not be mutated.
	PrepareClasses(classes []*classfile.Class) ([]*classfile.Class, error)
	// OnLoad is the Agent_OnLoad entry point: the agent requests
	// capabilities, enables events, installs callbacks and wrappers, and
	// may load support classes into the VM. It runs before application
	// classes are loaded.
	OnLoad(env *jvmti.Env) error
	// Report returns the collected statistics. Valid after the VM died.
	Report() *Report
}

// ThreadStats is the per-thread slice of a profiling report.
type ThreadStats struct {
	ThreadID          cycles.ThreadID
	Name              string
	BytecodeCycles    uint64
	NativeCycles      uint64
	JNICalls          uint64
	NativeMethodCalls uint64
}

// Report is the profiling summary an agent produces: the Table II columns
// (percentage of native execution, JNI calls, native method calls) plus
// the underlying cycle totals and per-thread detail.
type Report struct {
	AgentName           string
	TotalBytecodeCycles uint64
	TotalNativeCycles   uint64
	// JNICalls counts intercepted native-to-bytecode transitions.
	JNICalls uint64
	// NativeMethodCalls counts bytecode-to-native invocations.
	NativeMethodCalls uint64
	// PerThread is one row per finished thread. A merged report
	// (stats.MergeReports) carries none, so a cell payload that encodes
	// one omits the key.
	PerThread []ThreadStats `json:",omitempty"`
}

// TotalCycles returns the sum of attributed cycles.
func (r *Report) TotalCycles() uint64 {
	return r.TotalBytecodeCycles + r.TotalNativeCycles
}

// NativeFraction returns the fraction of measured execution attributed to
// native code, in [0,1].
func (r *Report) NativeFraction() float64 {
	total := r.TotalCycles()
	if total == 0 {
		return 0
	}
	return float64(r.TotalNativeCycles) / float64(total)
}

// String renders the report in the layout of the paper's Table II row.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "agent %s: %.2f%% native execution, %d JNI calls, %d native method calls\n",
		r.AgentName, r.NativeFraction()*100, r.JNICalls, r.NativeMethodCalls)
	fmt.Fprintf(&b, "  bytecode cycles: %d\n  native cycles:   %d\n",
		r.TotalBytecodeCycles, r.TotalNativeCycles)
	for _, ts := range r.PerThread {
		fmt.Fprintf(&b, "  thread %d (%s): bytecode=%d native=%d jni=%d nativeCalls=%d\n",
			ts.ThreadID, ts.Name, ts.BytecodeCycles, ts.NativeCycles, ts.JNICalls, ts.NativeMethodCalls)
	}
	return b.String()
}

// Program describes a runnable workload: its classes, native libraries and
// entry point.
type Program struct {
	Name      string
	Classes   []*classfile.Class
	Libraries []vm.NativeLibrary
	MainClass string
	MainName  string
	MainDesc  string
	Args      []int64
	// Ops optionally reports the number of application-level operations
	// the program performs, for throughput metrics (SPEC JBB2005 style).
	Ops uint64
}

// GroundTruth aggregates the engine-maintained cycle attribution across
// all threads; it is the oracle agents are validated against.
type GroundTruth struct {
	BytecodeCycles uint64
	NativeCycles   uint64
	OverheadCycles uint64
	// GCCycles is the simulated collection-pause time charged by the
	// generational heap; zero in legacy mode (unbounded heap).
	GCCycles uint64
	// NativeMethodCalls is the engine count of J2N invocations, including
	// any agent-injected native methods.
	NativeMethodCalls uint64
	// JNICalls is the engine count of dispatched JNI invocations,
	// including the per-thread launcher call.
	JNICalls uint64
}

// Add accumulates another run's ground truth, the aggregation used when
// one measurement spans several VM runs (warehouse sequences).
func (g *GroundTruth) Add(o GroundTruth) {
	g.BytecodeCycles += o.BytecodeCycles
	g.NativeCycles += o.NativeCycles
	g.OverheadCycles += o.OverheadCycles
	g.GCCycles += o.GCCycles
	g.NativeMethodCalls += o.NativeMethodCalls
	g.JNICalls += o.JNICalls
}

// NativeFraction returns the ground-truth native share of bytecode+native
// cycles (profiling overhead excluded).
func (g GroundTruth) NativeFraction() float64 {
	total := g.BytecodeCycles + g.NativeCycles
	if total == 0 {
		return 0
	}
	return float64(g.NativeCycles) / float64(total)
}

// RunResult is everything a Run produces.
type RunResult struct {
	// Program is the workload name.
	Program string
	// Agent is the agent name, or "" for an uninstrumented run.
	Agent string
	// MainResult is the value returned by the program's main method.
	MainResult int64
	// TotalCycles is the run's execution-time metric: the sum of all
	// thread cycle counters (single-CPU wall-clock model).
	TotalCycles uint64
	// Ops echoes Program.Ops for throughput computation.
	Ops uint64
	// Report is the agent's profiling report, nil without an agent.
	Report *Report
	// Truth is the engine's ground-truth attribution.
	Truth GroundTruth
	// Instructions is the engine count of executed bytecode instructions
	// across all threads, the oracle for instruction-counting profilers.
	Instructions uint64
	// JITCompiled counts methods the JIT model compiled during the run.
	JITCompiled int
	// Threads is the number of threads the run created.
	Threads int
	// GC is the generational heap's allocation/collection ledger:
	// arrays and words allocated, collected and live, pause counts and
	// total pause cycles. Unlike Tier, these ARE simulated observables —
	// byte-identical across engines — and all zero except the allocation
	// counters when the heap runs in legacy (unbounded) mode.
	GC vm.GCStats
	// Tier is the template tier's bookkeeping: which engine ran, how many
	// methods were promoted to compiled trace units, frames executed
	// compiled, deopts, and cache invalidations. All zero under
	// -engine=interp. Tier stats are host-side observability — they are
	// deliberately not part of the simulated observables, which stay
	// byte-identical across engines.
	Tier jit.Stats
}

// Throughput returns operations per million cycles, the JBB-style metric.
func (r *RunResult) Throughput() float64 {
	if r.TotalCycles == 0 {
		return 0
	}
	return float64(r.Ops) / (float64(r.TotalCycles) / 1e6)
}

// Run executes prog on a fresh VM with the given options, optionally under
// a profiling agent, and collects the results. The sequence mirrors a real
// deployment: agent OnLoad first (so its hooks observe class loading),
// then static instrumentation and class loading, then the run.
//
// Every run is isolated in everything it simulates: the VM, its
// cycle-counter registry, the JNI and JVMTI layers and (by contract) the
// single-use agent are all constructed fresh per call, so concurrent Runs
// on different goroutines are independent. What runs share is host
// memory only: Run drops its VM, so it releases it, and the next VM in
// the process adopts its handle tables, arena blocks and frame arenas
// (see vm.VM.Release).
func Run(prog *Program, agent Agent, opts vm.Options) (*RunResult, error) {
	res, v, err := run(prog, agent, opts)
	if v != nil {
		v.Release()
	}
	return res, err
}

// RunContext is Run with cooperative cancellation: a cancelled context
// aborts before VM construction with ctx.Err(). The simulated program
// itself is not interruptible — cells are short relative to a campaign,
// so the parallel runner cancels between cells, not inside them.
func RunContext(ctx context.Context, prog *Program, agent Agent, opts vm.Options) (*RunResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return Run(prog, agent, opts)
}

// RunOnVM is like Run but returns the VM instead of the result summary,
// for callers that need post-run engine inspection (instruction counts,
// loaded classes, heap state).
func RunOnVM(prog *Program, agent Agent, opts vm.Options) (*vm.VM, error) {
	_, v, err := RunKeepVM(prog, agent, opts)
	return v, err
}

// RunKeepVM executes prog and returns both the result summary and the VM.
// The VM's heap is never released: the caller owns it.
func RunKeepVM(prog *Program, agent Agent, opts vm.Options) (*RunResult, *vm.VM, error) {
	res, v, err := run(prog, agent, opts)
	if err != nil {
		return nil, nil, err
	}
	return res, v, nil
}

// run is RunKeepVM, except that it returns the VM it constructed on error
// too, once nothing runs on it any more.
func run(prog *Program, agent Agent, opts vm.Options) (*RunResult, *vm.VM, error) {
	if prog.MainClass == "" || prog.MainName == "" || prog.MainDesc == "" {
		return nil, nil, fmt.Errorf("core: program %q has no entry point", prog.Name)
	}
	v := vm.New(opts)
	j := jni.Attach(v)
	env := jvmti.NewEnv(v, j)

	classes := prog.Classes
	if agent != nil {
		if err := agent.OnLoad(env); err != nil {
			return nil, v, fmt.Errorf("core: agent %s OnLoad: %w", agent.Name(), err)
		}
		prepared, err := agent.PrepareClasses(classes)
		if err != nil {
			return nil, v, fmt.Errorf("core: agent %s PrepareClasses: %w", agent.Name(), err)
		}
		classes = prepared
	}
	if err := v.LoadClasses(classes); err != nil {
		return nil, v, fmt.Errorf("core: loading %q: %w", prog.Name, err)
	}
	for _, lib := range prog.Libraries {
		if err := v.LoadLibrary(lib); err != nil {
			return nil, v, fmt.Errorf("core: library %q: %w", lib.Name, err)
		}
	}

	mainResult, err := v.Run(prog.MainClass, prog.MainName, prog.MainDesc, prog.Args...)
	if err != nil {
		return nil, v, fmt.Errorf("core: running %q: %w", prog.Name, err)
	}

	res := &RunResult{
		Program:      prog.Name,
		MainResult:   mainResult,
		TotalCycles:  v.TotalCycles(),
		Ops:          prog.Ops,
		Instructions: v.InstructionsExecuted(),
		JITCompiled:  v.JITCompiledCount(),
		Threads:      len(v.Threads()),
		Tier:         v.TierStats(),
	}
	res.GC = v.GCStats()
	for _, t := range v.Threads() {
		bc, nat, ovh := t.GroundTruth()
		res.Truth.BytecodeCycles += bc
		res.Truth.NativeCycles += nat
		res.Truth.OverheadCycles += ovh
		res.Truth.GCCycles += t.GCCycles()
	}
	res.Truth.NativeMethodCalls = v.NativeCallCount()
	res.Truth.JNICalls = j.CallCount()
	if agent != nil {
		res.Agent = agent.Name()
		res.Report = agent.Report()
	}
	return res, v, nil
}

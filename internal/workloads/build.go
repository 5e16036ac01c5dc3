package workloads

import (
	"fmt"
	"sort"
	"strconv"
	"sync/atomic"

	"repro/internal/bytecode"
	"repro/internal/classfile"
	"repro/internal/core"
	"repro/internal/vm"
)

// BuildWorkload generates the program for a phase-described workload: its
// classes, native library and entry point. Each call returns a fresh
// Program with fresh native-library state, so concurrent runs do not share
// counters.
//
// The generated class always has the shape
//
//	static long main(int iters)   — spawns warehouses, runs a worker
//	static long worker(int iters) — the outer loop; each iteration runs
//	                                every phase's kernel calls in order
//
// followed by the phases' kernel methods in the legacy layout (loop
// kernels, JNI callback kernels, array kernels, then the newer kinds —
// see rankedKernel), the native method declarations, and the spawn
// helper when Threads >= 2. Kernel names are the phase vocabulary's
// legacy names ("helper", "arrwork", "nwork", "callback", ...) with an
// ordinal suffix when a kind occurs more than once.
func BuildWorkload(w Workload) (*core.Program, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	g := &generator{
		w:         w,
		funcs:     map[string]vm.NativeFunc{},
		kindCount: map[string]int{},
	}
	for i := range w.Phases {
		if err := g.addPhase(w.Phases[i]); err != nil {
			return nil, fmt.Errorf("workloads: %s: phase %d (%s): %w", w.Name, i, w.Phases[i].Kind, err)
		}
	}
	cls, err := g.assembleClass()
	if err != nil {
		return nil, err
	}
	prog := &core.Program{
		Name:      w.Name,
		Classes:   []*classfile.Class{cls},
		MainClass: w.ClassName,
		MainName:  "main",
		MainDesc:  "(I)J",
		Args:      []int64{int64(w.OuterIters)},
		Ops:       uint64(w.workers()) * uint64(w.OuterIters) * w.OpsPerIter,
	}
	if len(g.funcs) > 0 {
		prog.Libraries = []vm.NativeLibrary{{Name: w.Name + "-native", Funcs: g.funcs}}
	}
	return prog, nil
}

// generator accumulates the class members and native functions the phases
// contribute, in phase order.
type generator struct {
	w Workload

	kernels []rankedKernel                // Java kernel methods, layout order
	decls   []*classfile.Method           // native method declarations
	fields  []*classfile.Field            // static fields (contend)
	funcs   map[string]vm.NativeFunc      // native library symbols
	emit    []func(a *bytecode.Assembler) // per-iteration worker code, phase order

	kindCount map[string]int
}

// rankedKernel carries a kernel method with its class-layout rank. The
// layout preserves the historical class shape the legacy generator
// produced (helper, callback, arrwork, then everything newer): pure
// loop kernels first, JNI callback kernels second, array kernels third,
// and the kernels of the newer phase kinds after them — stable within a
// rank, so repeated kinds stay in phase order. The pinned legacy class
// hashes (phase_test.go) depend on this ordering.
type rankedKernel struct {
	rank int
	m    *classfile.Method
}

// Kernel layout ranks.
const (
	rankLoop  = 0 // bytecode helper kernels
	rankCB    = 1 // native-phase JNI callback kernels
	rankArray = 2 // array sweep kernels
	rankOther = 3 // alloc, deepchain, exception, contend kernels
)

// kernelName returns the phase's kernel name: the legacy base name for the
// first phase of a kind, base+ordinal from the second on ("helper",
// "helper2", ...), so single-instance workloads keep the historical class
// shape.
func kernelName(base string, ordinal int) string {
	if ordinal == 0 {
		return base
	}
	return base + strconv.Itoa(ordinal+1)
}

// emitAccCalls appends n "acc = kernel(acc)" call sites to the worker's
// per-iteration code; the accumulator lives in worker local 2.
func (g *generator) emitAccCalls(n int, name, desc string) {
	cls := g.w.ClassName
	g.emit = append(g.emit, func(a *bytecode.Assembler) {
		for c := 0; c < n; c++ {
			a.Load(2)
			a.InvokeStatic(cls, name, desc)
			a.Store(2)
		}
	})
}

// addPhase registers one phase's kernels, native functions and worker
// call sites.
func (g *generator) addPhase(p Phase) error {
	ordinal := g.kindCount[p.Kind]
	g.kindCount[p.Kind]++
	switch p.Kind {
	case PhaseBytecode:
		return g.addBytecode(p, ordinal)
	case PhaseArray:
		return g.addArray(p, ordinal)
	case PhaseNative:
		return g.addNative(p, ordinal)
	case PhaseAlloc:
		return g.addAlloc(p, ordinal)
	case PhaseDeepChain:
		return g.addDeepChain(p, ordinal)
	case PhaseException:
		return g.addException(p, ordinal)
	case PhaseContend:
		return g.addContend(p, ordinal)
	case PhaseRetain:
		return g.addRetain(p, ordinal)
	}
	return fmt.Errorf("unknown phase kind %q", p.Kind)
}

func (g *generator) addBytecode(p Phase, ordinal int) error {
	name := kernelName("helper", ordinal)
	m, err := buildLoopKernel(name, p.Work)
	if err != nil {
		return err
	}
	g.kernels = append(g.kernels, rankedKernel{rankLoop, m})
	g.emitAccCalls(p.Calls, name, "(J)J")
	return nil
}

func (g *generator) addArray(p Phase, ordinal int) error {
	name := kernelName("arrwork", ordinal)
	m, err := buildArrayKernel(name, p.Work)
	if err != nil {
		return err
	}
	g.kernels = append(g.kernels, rankedKernel{rankArray, m})
	calls := p.Calls
	if calls < 1 {
		calls = 1
	}
	g.emitAccCalls(calls, name, "(J)J")
	return nil
}

func (g *generator) addNative(p Phase, ordinal int) error {
	nworkName := kernelName("nwork", ordinal)
	cbName := kernelName("callback", ordinal)
	cb, err := buildLoopKernel(cbName, p.CallbackWork)
	if err != nil {
		return err
	}
	g.kernels = append(g.kernels, rankedKernel{rankCB, cb})
	g.decls = append(g.decls, &classfile.Method{
		Name: nworkName, Desc: "(J)J",
		Flags: classfile.AccPublic | classfile.AccStatic | classfile.AccNative,
	})

	// The nwork kernel models p.Work cycles of native computation and
	// performs JNI callbacks into Java on every JNIEvery-th invocation.
	// The invocation counter is per phase instance and per Build call, so
	// concurrent runs never share it.
	cls := g.w.ClassName
	nativeWork := uint64(p.Work)
	jniEvery := p.JNIEvery
	per := p.CallbacksPerNative
	if per < 1 {
		per = 1
	}
	var calls atomic.Uint64
	g.funcs[cls+"."+nworkName+"(J)J"] = func(env vm.Env, args []int64) (int64, error) {
		env.Work(nativeWork)
		if jniEvery > 0 && calls.Add(1)%uint64(jniEvery) == 0 {
			r := args[0]
			for k := 0; k < per; k++ {
				var err error
				r, err = env.CallStatic1(cls, cbName, "(J)J", r)
				if err != nil {
					return 0, err
				}
			}
			return r, nil
		}
		return args[0] + 1, nil
	}
	g.emitAccCalls(p.Calls, nworkName, "(J)J")
	return nil
}

func (g *generator) addAlloc(p Phase, ordinal int) error {
	name := kernelName("allocburst", ordinal)
	size := p.Size
	if size < 1 {
		size = 16
	}
	m, err := buildAllocKernel(name, p.Work, size)
	if err != nil {
		return err
	}
	g.kernels = append(g.kernels, rankedKernel{rankOther, m})
	g.emitAccCalls(p.Calls, name, "(J)J")
	return nil
}

func (g *generator) addDeepChain(p Phase, ordinal int) error {
	name := kernelName("descend", ordinal)
	m, err := buildDescendKernel(g.w.ClassName, name, p.Work)
	if err != nil {
		return err
	}
	g.kernels = append(g.kernels, rankedKernel{rankOther, m})
	depth := p.Depth
	if depth < 1 {
		depth = 1
	}
	cls := g.w.ClassName
	calls := p.Calls
	g.emit = append(g.emit, func(a *bytecode.Assembler) {
		for c := 0; c < calls; c++ {
			a.Const(int64(depth))
			a.Load(2)
			a.InvokeStatic(cls, name, "(JJ)J")
			a.Store(2)
		}
	})
	return nil
}

func (g *generator) addException(p Phase, ordinal int) error {
	tryName := kernelName("trycatch", ordinal)
	boomName := kernelName("boom", ordinal)
	depth := p.Depth
	if depth < 1 {
		depth = 1
	}
	boom, err := buildBoomKernel(g.w.ClassName, boomName, p.Work)
	if err != nil {
		return err
	}
	tc, err := buildTryCatchKernel(g.w.ClassName, tryName, boomName, depth)
	if err != nil {
		return err
	}
	g.kernels = append(g.kernels, rankedKernel{rankOther, tc}, rankedKernel{rankOther, boom})
	g.emitAccCalls(p.Calls, tryName, "(J)J")
	return nil
}

func (g *generator) addRetain(p Phase, ordinal int) error {
	name := kernelName("retain", ordinal)
	size := p.Size
	if size < 1 {
		size = 16
	}
	depth := p.Depth
	if depth < 1 {
		depth = 4
	}
	m, err := buildRetainKernel(name, p.Work, size, depth)
	if err != nil {
		return err
	}
	g.kernels = append(g.kernels, rankedKernel{rankOther, m})
	g.emitAccCalls(p.Calls, name, "(J)J")
	return nil
}

func (g *generator) addContend(p Phase, ordinal int) error {
	name := kernelName("contend", ordinal)
	field := kernelName("shared", ordinal)
	m, err := buildContendKernel(g.w.ClassName, name, field, p.Work)
	if err != nil {
		return err
	}
	g.kernels = append(g.kernels, rankedKernel{rankOther, m})
	g.fields = append(g.fields, &classfile.Field{
		Name: field, Flags: classfile.AccPublic | classfile.AccStatic,
	})
	g.emitAccCalls(p.Calls, name, "(J)J")
	return nil
}

// assembleClass lays out the benchmark class: main, worker, the phases'
// Java kernels, the native declarations, and the spawn helper for
// multi-thread workloads.
func (g *generator) assembleClass() (*classfile.Class, error) {
	w := g.w
	mainM, err := buildMain(w)
	if err != nil {
		return nil, err
	}
	workerM, err := g.buildWorker()
	if err != nil {
		return nil, err
	}
	kernels := append([]rankedKernel(nil), g.kernels...)
	sort.SliceStable(kernels, func(i, j int) bool { return kernels[i].rank < kernels[j].rank })
	methods := []*classfile.Method{mainM, workerM}
	for _, k := range kernels {
		methods = append(methods, k.m)
	}
	methods = append(methods, g.decls...)
	if w.workers() > 1 {
		methods = append(methods, &classfile.Method{
			Name: "spawn", Desc: "(I)V",
			Flags: classfile.AccPublic | classfile.AccStatic | classfile.AccNative,
		})
		g.addSpawnNative()
	}
	cls := &classfile.Class{
		Name:       w.ClassName,
		SourceFile: w.Name + ".gen",
		Fields:     g.fields,
		Methods:    methods,
	}
	if err := cls.Validate(); err != nil {
		return nil, err
	}
	return cls, nil
}

// buildMain: with warehouses, spawn(Threads-1) then run one worker on the
// main thread; otherwise just run the worker.
func buildMain(w Workload) (*classfile.Method, error) {
	a := bytecode.NewAssembler()
	if w.workers() > 1 {
		a.Const(int64(w.workers() - 1))
		a.InvokeStatic(w.ClassName, "spawn", "(I)V")
	}
	a.Load(0)
	a.InvokeStatic(w.ClassName, "worker", "(I)J")
	a.IReturn()
	return a.FinishMethod("main", "(I)J", classfile.AccPublic|classfile.AccStatic, 1, nil)
}

// buildWorker assembles the outer loop; locals 0=iters, 1=i, 2=acc. Each
// iteration runs every phase's call sites in phase order.
func (g *generator) buildWorker() (*classfile.Method, error) {
	a := bytecode.NewAssembler()
	a.Const(0)
	a.Store(2) // acc = 0
	a.Const(0)
	a.Store(1) // i = 0
	top := a.NewLabel()
	end := a.NewLabel()
	a.Bind(top)
	a.Load(1)
	a.Load(0)
	a.IfCmpge(end)
	for _, emit := range g.emit {
		emit(a)
	}
	a.Inc(1, 1)
	a.Goto(top)
	a.Bind(end)
	a.Load(2)
	a.IReturn()
	return a.FinishMethod("worker", "(I)J", classfile.AccPublic|classfile.AccStatic, 3, nil)
}

// addSpawnNative registers the warehouse-creation helper: each spawned
// thread runs the same worker loop.
func (g *generator) addSpawnNative() {
	w := g.w
	g.funcs[w.ClassName+".spawn(I)V"] = func(env vm.Env, args []int64) (int64, error) {
		env.Work(200) // thread-creation native cost
		for i := int64(0); i < args[0]; i++ {
			name := fmt.Sprintf("warehouse-%d", i+1)
			if _, err := env.VM().SpawnThread(name, w.ClassName, "worker", "(I)J", int64(w.OuterIters)); err != nil {
				return 0, err
			}
		}
		return 0, nil
	}
}

// buildLoopKernel: static long name(long x) { for k in 0..work { x = x*31 + 7 } return x }
func buildLoopKernel(name string, work int) (*classfile.Method, error) {
	a := bytecode.NewAssembler()
	if work > 0 {
		a.Const(int64(work))
		a.Store(1)
		top := a.NewLabel()
		end := a.NewLabel()
		a.Bind(top)
		a.Load(1)
		a.Ifle(end)
		a.Load(0)
		a.Const(31)
		a.Mul()
		a.Const(7)
		a.Add()
		a.Store(0)
		a.Inc(1, -1)
		a.Goto(top)
		a.Bind(end)
	}
	a.Load(0)
	a.IReturn()
	return a.FinishMethod(name, "(J)J", classfile.AccPublic|classfile.AccStatic, 2, nil)
}

// buildArrayKernel: allocate an array of n words once per call, fill it
// with a recurrence and fold it back into the accumulator.
func buildArrayKernel(name string, n int) (*classfile.Method, error) {
	a := bytecode.NewAssembler()
	// locals: 0=x, 1=arr, 2=k
	a.Const(int64(n))
	a.NewArray()
	a.Store(1)
	a.Const(0)
	a.Store(2)
	fillTop := a.NewLabel()
	fillEnd := a.NewLabel()
	a.Bind(fillTop)
	a.Load(2)
	a.Const(int64(n))
	a.IfCmpge(fillEnd)
	a.Load(1)
	a.Load(2)
	a.Load(0)
	a.Load(2)
	a.Add() // x + k
	a.AStore()
	a.Inc(2, 1)
	a.Goto(fillTop)
	a.Bind(fillEnd)
	// Fold: x = xor of elements.
	a.Const(0)
	a.Store(2)
	foldTop := a.NewLabel()
	foldEnd := a.NewLabel()
	a.Bind(foldTop)
	a.Load(2)
	a.Const(int64(n))
	a.IfCmpge(foldEnd)
	a.Load(0)
	a.Load(1)
	a.Load(2)
	a.ALoad()
	a.Xor()
	a.Store(0)
	a.Inc(2, 1)
	a.Goto(foldTop)
	a.Bind(foldEnd)
	a.Load(0)
	a.IReturn()
	return a.FinishMethod(name, "(J)J", classfile.AccPublic|classfile.AccStatic, 3, nil)
}

// buildAllocKernel: per call, allocate `count` fresh arrays of `size`
// words, touching each one (store into slot 0, fold it back), so every
// allocation is live work rather than dead code.
func buildAllocKernel(name string, count, size int) (*classfile.Method, error) {
	a := bytecode.NewAssembler()
	// locals: 0=x, 1=k, 2=arr
	if count > 0 {
		a.Const(int64(count))
		a.Store(1)
		top := a.NewLabel()
		end := a.NewLabel()
		a.Bind(top)
		a.Load(1)
		a.Ifle(end)
		a.Const(int64(size))
		a.NewArray()
		a.Store(2)
		a.Load(2)
		a.Const(0)
		a.Load(0)
		a.Load(1)
		a.Add() // x + k
		a.AStore()
		a.Load(0)
		a.Load(2)
		a.Const(0)
		a.ALoad()
		a.Xor()
		a.Store(0)
		a.Inc(1, -1)
		a.Goto(top)
		a.Bind(end)
	}
	a.Load(0)
	a.IReturn()
	return a.FinishMethod(name, "(J)J", classfile.AccPublic|classfile.AccStatic, 3, nil)
}

// buildRetainKernel: per call, allocate a holder array of `depth` slots,
// then perform `count` allocations of `size` words each, parking every
// fresh array in holder[k % depth] — the rotating window keeps the last
// `depth` arrays (plus the holder itself) reachable across many
// subsequent allocations, so under a bounded nursery they survive minor
// collections and tenure, unlike the alloc burst whose arrays die as
// soon as the next one arrives.
func buildRetainKernel(name string, count, size, depth int) (*classfile.Method, error) {
	a := bytecode.NewAssembler()
	// locals: 0=x, 1=k, 2=holder, 3=tmp
	a.Const(int64(depth))
	a.NewArray()
	a.Store(2)
	if count > 0 {
		a.Const(int64(count))
		a.Store(1)
		top := a.NewLabel()
		end := a.NewLabel()
		a.Bind(top)
		a.Load(1)
		a.Ifle(end)
		// tmp = new long[size]; tmp[0] = x + k
		a.Const(int64(size))
		a.NewArray()
		a.Store(3)
		a.Load(3)
		a.Const(0)
		a.Load(0)
		a.Load(1)
		a.Add()
		a.AStore()
		// holder[k % depth] = tmp
		a.Load(2)
		a.Load(1)
		a.Const(int64(depth))
		a.Rem()
		a.Load(3)
		a.AStore()
		// x ^= tmp[0]
		a.Load(0)
		a.Load(3)
		a.Const(0)
		a.ALoad()
		a.Xor()
		a.Store(0)
		a.Inc(1, -1)
		a.Goto(top)
		a.Bind(end)
	}
	// Fold a retained element back so the holder stays live to the end.
	a.Load(0)
	a.Load(2)
	a.Const(0)
	a.ALoad()
	a.Xor()
	a.Store(0)
	a.Load(0)
	a.IReturn()
	return a.FinishMethod(name, "(J)J", classfile.AccPublic|classfile.AccStatic, 4, nil)
}

// buildDescendKernel: static long name(long d, long x) — recurse d frames,
// mixing x at every level, with an inner loop of `work` steps at the
// bottom. Each chain is d+1 stacked invocations.
func buildDescendKernel(class, name string, work int) (*classfile.Method, error) {
	a := bytecode.NewAssembler()
	// locals: 0=d, 1=x, 2=k
	base := a.NewLabel()
	a.Load(0)
	a.Ifle(base)
	a.Load(0)
	a.Const(1)
	a.Sub() // d-1
	a.Load(1)
	a.Const(31)
	a.Mul()
	a.Const(7)
	a.Add() // x*31+7
	a.InvokeStatic(class, name, "(JJ)J")
	a.IReturn()
	a.Bind(base)
	if work > 0 {
		a.Const(int64(work))
		a.Store(2)
		top := a.NewLabel()
		end := a.NewLabel()
		a.Bind(top)
		a.Load(2)
		a.Ifle(end)
		a.Load(1)
		a.Const(31)
		a.Mul()
		a.Const(7)
		a.Add()
		a.Store(1)
		a.Inc(2, -1)
		a.Goto(top)
		a.Bind(end)
	}
	a.Load(1)
	a.IReturn()
	return a.FinishMethod(name, "(JJ)J", classfile.AccPublic|classfile.AccStatic, 3, nil)
}

// buildBoomKernel: static long name(long d, long x) — recurse d frames
// (doing `work` setup steps at the bottom) and then throw x, so the
// exception unwinds the whole chain.
func buildBoomKernel(class, name string, work int) (*classfile.Method, error) {
	a := bytecode.NewAssembler()
	// locals: 0=d, 1=x, 2=k
	throwIt := a.NewLabel()
	a.Load(0)
	a.Ifle(throwIt)
	a.Load(0)
	a.Const(1)
	a.Sub()
	a.Load(1)
	a.InvokeStatic(class, name, "(JJ)J")
	a.IReturn()
	a.Bind(throwIt)
	if work > 0 {
		a.Const(int64(work))
		a.Store(2)
		top := a.NewLabel()
		end := a.NewLabel()
		a.Bind(top)
		a.Load(2)
		a.Ifle(end)
		a.Load(1)
		a.Const(31)
		a.Mul()
		a.Const(7)
		a.Add()
		a.Store(1)
		a.Inc(2, -1)
		a.Goto(top)
		a.Bind(end)
	}
	a.Load(1)
	a.Throw()
	return a.FinishMethod(name, "(JJ)J", classfile.AccPublic|classfile.AccStatic, 3, nil)
}

// buildContendKernel: per call, run `work` read-modify-write rounds on the
// class's shared static field — every worker thread hammers the same
// location, and the cooperative scheduler interleaves them at quantum
// boundaries.
func buildContendKernel(class, name, field string, work int) (*classfile.Method, error) {
	a := bytecode.NewAssembler()
	// locals: 0=x, 1=k
	if work > 0 {
		a.Const(int64(work))
		a.Store(1)
		top := a.NewLabel()
		end := a.NewLabel()
		a.Bind(top)
		a.Load(1)
		a.Ifle(end)
		a.GetStatic(class, field)
		a.Load(0)
		a.Add()
		a.PutStatic(class, field) // shared += x
		a.GetStatic(class, field)
		a.Load(0)
		a.Xor()
		a.Store(0) // x ^= shared
		a.Inc(1, -1)
		a.Goto(top)
		a.Bind(end)
	}
	a.Load(0)
	a.IReturn()
	return a.FinishMethod(name, "(J)J", classfile.AccPublic|classfile.AccStatic, 2, nil)
}

// buildTryCatchKernel: static long name(long x) { try { return boom(depth,
// x); } catch (any t) { return t + 1; } } — the protected region covers the
// whole call, and the catch-all handler folds the thrown value back into
// the accumulator.
func buildTryCatchKernel(class, name, boomName string, depth int) (*classfile.Method, error) {
	a := bytecode.NewAssembler()
	a.Const(int64(depth))
	a.Load(0)
	a.InvokeStatic(class, boomName, "(JJ)J")
	a.IReturn()
	handler := a.Offset()
	a.EnterHandler()
	a.Const(1)
	a.Add()
	a.IReturn()
	return a.FinishMethod(name, "(J)J", classfile.AccPublic|classfile.AccStatic, 1,
		[]classfile.ExceptionEntry{{StartPC: 0, EndPC: handler, HandlerPC: handler}})
}

// Package vm implements the simulated Java Virtual Machine that serves as
// the substrate for the reproduction: class loading and linking, a bytecode
// interpreter with a JIT-compilation model, native-method resolution with
// the JVMTI prefix-retry strategy, cooperative deterministic threads, and
// per-thread virtual cycle accounting.
//
// The profiling layers (internal/jvmti, internal/jni) attach to this VM via
// the Hooks and EnvFactory extension points; they never reach into the
// interpreter itself, mirroring how the paper's agents interact with a real
// JVM only through standard interfaces.
package vm

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/classfile"
	"repro/internal/cycles"
	"repro/internal/jit"
)

// Options configures the cost model and JIT behaviour of a VM. All costs
// are in virtual cycles.
type Options struct {
	// CostInterp is the cost of one interpreted bytecode instruction.
	CostInterp uint64
	// CostCompiled is the cost of one instruction in a JIT-compiled
	// method.
	CostCompiled uint64
	// CostInvoke is the fixed overhead of a method invocation.
	CostInvoke uint64
	// CostNativeCall is the fixed overhead of crossing into native code
	// (argument marshalling, stack setup), charged per native invocation.
	CostNativeCall uint64
	// CostEventDispatch is charged to a thread for every JVMTI event
	// delivered on it. Real JVMTI event dispatch is expensive; this
	// constant is the dominant term in SPA's overhead.
	CostEventDispatch uint64
	// JITThreshold is the invocation count after which a bytecode method
	// is compiled, provided JIT compilation is not disabled.
	JITThreshold uint64
	// SampleInterval, when non-zero, delivers a Sample hook event each
	// time a thread's cycle counter crosses a multiple of the interval —
	// the substrate for PC-sampling profilers (IBM tprof style), which
	// the paper's related-work section contrasts with IPA.
	SampleInterval uint64
	// SampleCost is charged to the thread per delivered sample, modelling
	// the sampling interrupt.
	SampleCost uint64
	// MaxFrames bounds the simulated call depth.
	MaxFrames int
	// Quantum is the number of instructions a thread executes before the
	// cooperative scheduler rotates to the next runnable thread.
	Quantum int
	// ForceInstrumentedLoop forces the interpreter onto its fully
	// instrumented dispatch loop even when no tracer or sampling hook is
	// installed. The block executor and the instrumented loop are
	// observably equivalent; this switch exists so differential tests can
	// prove it.
	ForceInstrumentedLoop bool
	// Tier selects the execution engine. EngineInterp (the zero value)
	// never promotes. EngineJIT and EngineAuto enable the internal/jit
	// template tier, which promotes hot bytecode methods and deoptimizes
	// their frames back to the instrumented interpreter whenever
	// per-instruction semantics are required. Interpreted and promoted
	// frames run the same lowering on the same executor; promotion only
	// decides which tier counters a frame moves. Every observable
	// simulated value (cycles, instruction counts, ground truth, reports,
	// results) is byte-identical across engines.
	Tier jit.Engine
	// CompileThreshold is the invocation count at which the template
	// tier promotes a method. 0 means "track the JIT model": promote at
	// JITThreshold, so host compilation coincides with the simulated
	// interp→compiled cost transition.
	CompileThreshold uint64
	// Heap sizes the generational heap simulation (nursery/tenured
	// occupancy thresholds, tenure age, collection costs). The zero
	// value is legacy mode: an unbounded flat store that never collects,
	// byte-identical to the pre-generational heap.
	Heap HeapConfig
}

// DefaultOptions returns the calibrated cost model used throughout the
// evaluation. The interpreted/compiled ratio (10:1) and the event dispatch
// cost (2000 cycles) are chosen so the SPA/IPA overhead split of Table I
// emerges from the mechanism, not from hard-coded results.
func DefaultOptions() Options {
	return Options{
		CostInterp:        10,
		CostCompiled:      1,
		CostInvoke:        4,
		CostNativeCall:    8,
		CostEventDispatch: 2000,
		JITThreshold:      10,
		MaxFrames:         2048,
		Quantum:           4096,
	}
}

// Hooks is the VM-side event surface the JVMTI layer installs into. Nil
// members are skipped. The VM charges CostEventDispatch to the current
// thread for each non-nil hook it fires (except ClassFileLoad, which runs
// at load time, and VMDeath, which runs after all threads stopped).
type Hooks struct {
	// ThreadStart fires on a new thread before its entry method runs.
	// Per the JVMTI specification (and Section III of the paper), it is
	// NOT fired for the bootstrapping main thread.
	ThreadStart func(t *Thread)
	// ThreadEnd fires on a terminating thread after its entry method.
	ThreadEnd func(t *Thread)
	// VMDeath fires once after all threads have terminated.
	VMDeath func()
	// MethodEntry fires on entry of every method, including native
	// methods, when method events are enabled.
	MethodEntry func(t *Thread, m *Method)
	// MethodExit fires on exit of every method, by return or exception,
	// when method events are enabled.
	MethodExit func(t *Thread, m *Method)
	// ClassFileLoad may transform a class before linking; returning nil
	// keeps the original. It is the ClassFileLoadHook of JVMTI.
	ClassFileLoad func(c *classfile.Class) *classfile.Class
	// Sample fires when Options.SampleInterval is set and a thread's
	// cycle counter crosses a sampling boundary. inNative reports which
	// side of the bytecode/native divide consumed the sampled cycles —
	// what a PC sampler learns by comparing the PC against the loaded
	// native code modules.
	Sample func(t *Thread, inNative bool)
	// Allocation fires on every array allocation when allocation events
	// are enabled (the JVMTI VMObjectAlloc analogue). m and at identify
	// the allocating method and code offset (nil/-1 from native code);
	// words is the array length, handle the fresh handle.
	Allocation func(t *Thread, m *Method, at int, words int64, handle int64)
	// GC fires after each simulated collection when GC events are
	// enabled, on the thread that triggered the pause, after the pause
	// cost was charged.
	GC func(t *Thread, info GCInfo)
}

// NativeFunc is the implementation of a native method. It receives the JNI
// environment of the current thread and the argument words (receiver first
// for instance methods), and returns the result word.
//
// Native implementations model their execution cost by calling env.Work.
type NativeFunc func(env Env, args []int64) (int64, error)

// NativeLibrary is a named set of native functions, keyed by
// "Class.name(Desc)" — the resolved symbol the VM links a native method
// against. It stands in for a .so loaded via System.loadLibrary.
type NativeLibrary struct {
	Name  string
	Funcs map[string]NativeFunc
}

// Env is the view of the JNI environment handed to native code. The
// concrete implementation lives in internal/jni so the function table can
// be intercepted (Section IV); the VM provides a plain fallback.
type Env interface {
	// Thread returns the current thread.
	Thread() *Thread
	// VM returns the owning VM.
	VM() *VM
	// Work advances the current thread's cycle counter by n cycles,
	// modelling native computation.
	Work(n uint64)
	// CallStatic invokes a static Java method from native code — an N2J
	// transition. name is the JNI invocation function variant used (e.g.
	// "CallStaticLongMethodA"); the jni layer dispatches through the
	// (possibly intercepted) function table.
	CallStatic(class, method, desc string, args ...int64) (int64, error)
	// CallStatic1 is CallStatic with exactly one argument word. Its fixed
	// arity lets a call through this interface allocate nothing, where
	// CallStatic's variadic slice escapes.
	CallStatic1(class, method, desc string, arg int64) (int64, error)
	// CallVirtual invokes an instance Java method from native code.
	CallVirtual(class, method, desc string, recv int64, args ...int64) (int64, error)
	// NewArray allocates an array on the simulated heap.
	NewArray(length int64) (int64, error)
	// ArrayLoad reads an array element.
	ArrayLoad(handle, index int64) (int64, error)
	// ArrayStore writes an array element.
	ArrayStore(handle, index, value int64) error
}

// Method is a linked (runtime) method.
type Method struct {
	Class *Class
	Def   *classfile.Method

	native     NativeFunc
	nativeName string // symbol the method actually linked against

	invocations uint64
	compiled    bool
	// Template-tier state, colocated with the per-invoke hotness fields
	// (the invocations++ write pulls this cache line in on every call,
	// making the per-frame check free). promoted marks a method the tier
	// has promoted (cleared when method events de-optimize the world);
	// unitFailed pins methods the lowering rejected so promotion is not
	// retried every invoke.
	promoted   bool
	unitFailed bool

	// methodImage is what loading computed from the class content: the
	// argument and result words, the decoded body, its dispatch metadata
	// and its lowering. Every VM that loads the same class content shares
	// the slices and the unit it points to (see classimage.go), so nothing
	// writes through them; the fields around it are this VM's own.
	methodImage

	// superExec counts the instructions the method's interpreted frames'
	// batches executed without an op of their own. The executing thread
	// writes it under the scheduler baton (parallel harness runs use
	// separate VMs, so a plain field suffices — same rule as the VM's
	// tier counters).
	superExec uint64

	// Call-site and static-slot resolution caches, indexed like Def.Refs.
	// Entries are filled by (*VM).relinkLocked under the VM lock whenever
	// a class is loaded; a nil entry means the referenced class is not
	// loaded (yet) and the slow resolve path reports the error.
	refMethods []*Method
	refStatics []*int64
}

// Name returns the method name.
func (m *Method) Name() string { return m.Def.Name }

// Desc returns the method descriptor.
func (m *Method) Desc() string { return m.Def.Desc }

// IsNative reports whether the method is declared native. It is the
// predicate the paper's pseudo-code calls m.isNative().
func (m *Method) IsNative() bool { return m.Def.IsNative() }

// IsCompiled reports whether the JIT model has compiled the method.
func (m *Method) IsCompiled() bool { return m.compiled }

// Invocations returns how many times the method has been invoked.
func (m *Method) Invocations() uint64 { return m.invocations }

// FullName returns Class.name(desc).
func (m *Method) FullName() string {
	return m.Class.Name() + "." + m.Def.Name + m.Def.Desc
}

// Class is a linked (runtime) class.
type Class struct {
	def     *classfile.Class
	methods map[string]*Method
	statics map[string]*int64
}

// Name returns the class name.
func (c *Class) Name() string { return c.def.Name }

// Def returns the underlying class file structure.
func (c *Class) Def() *classfile.Class { return c.def }

// Method resolves name+desc in this class, or nil.
func (c *Class) Method(name, desc string) *Method {
	return c.methods[name+desc]
}

// Static returns a pointer to the named static field storage, or nil.
func (c *Class) Static(name string) *int64 {
	return c.statics[name]
}

// VM is a simulated Java Virtual Machine instance.
type VM struct {
	opts  Options
	Heap  *Heap
	Clock *cycles.Registry

	mu      sync.Mutex
	classes map[string]*Class
	natives map[string]NativeFunc
	// prefixes is the ordered list of native-method prefixes announced
	// via the JVMTI SetNativeMethodPrefix feature.
	prefixes []string

	hooks Hooks
	// methodEvents tracks whether MethodEntry/MethodExit delivery is on.
	methodEvents bool
	// allocEvents/gcEvents gate the allocation and collection hooks, the
	// analogue of methodEvents for the memory-event surface. Unlike
	// method events they do not disable the JIT model or the template
	// tier: allocations sit at fixed bytecode sites present in every
	// engine, so no per-instruction semantics are needed.
	allocEvents bool
	gcEvents    bool
	// jitDisabled is set while method events are enabled: the paper's
	// central observation is that enabling these events prevents JIT
	// compilation (Section III).
	jitDisabled bool

	// EnvFactory builds the JNI environment for a thread. internal/jni
	// replaces it to route native calls through the interceptable
	// function table.
	EnvFactory func(*Thread) Env

	sched       *scheduler
	halted      bool
	threadsEver []*Thread
	tracer      *Tracer

	// Template-tier counters (see jit.Stats). They are plain fields for
	// the same reason nativeCalls is: only one simulated thread executes
	// at a time under the scheduler baton.
	tierCompiled  uint64
	tierFailures  uint64
	tierFrames    uint64
	tierDeopts    uint64
	tierFallbacks uint64

	// counters for diagnostics
	classesLoaded int
	jitCompiled   int
	nativeCalls   uint64
}

// NativeCallCount returns the engine's ground-truth count of native method
// invocations (J2N transitions), independent of any profiling agent.
// Counting is unsynchronized for the same reason the heap is: only one
// simulated thread executes at a time, and readers (the harness) run
// after the scheduler loop has drained.
func (v *VM) NativeCallCount() uint64 {
	return v.nativeCalls
}

func (v *VM) countNativeCall() {
	v.nativeCalls++
}

// New creates a VM with the given options.
func New(opts Options) *VM {
	v := &VM{
		opts:    opts,
		Heap:    NewHeapWithConfig(opts.Heap),
		Clock:   cycles.NewRegistry(),
		classes: make(map[string]*Class),
		natives: make(map[string]NativeFunc),
	}
	v.Heap.rootScan = v.scanRoots
	v.EnvFactory = func(t *Thread) Env { return &plainEnv{t: t} }
	v.sched = newScheduler(v)
	return v
}

// Release ends the VM's host life once nothing runs on it any more: its
// threads' frame arenas join its heap's tables and arena blocks, and
// Heap.Release parks them as one record on the process-wide free list
// for the next VM to adopt. The VM's handles turn invalid; its
// statistics stay readable. core.Run calls it; a second call is a no-op.
func (v *VM) Release() {
	for _, t := range v.threadsEver {
		if t.arena != nil {
			v.Heap.frames = append(v.Heap.frames, t.arena)
			t.arena, t.arenaOff = nil, 0
		}
	}
	v.Heap.Release()
}

// Options returns the VM's option set.
func (v *VM) Options() Options { return v.opts }

// SetHooks installs the event hook set. It must be called before Run.
func (v *VM) SetHooks(h Hooks) { v.hooks = h }

// Hooks returns the currently installed hooks.
func (v *VM) Hooks() Hooks { return v.hooks }

// EnableMethodEvents turns MethodEntry/MethodExit delivery on or off.
// Enabling them disables JIT compilation and de-optimizes already compiled
// methods, reproducing the behaviour that makes SPA's overhead excessive.
// The template tier follows the same rule: every method loses its
// promotion, and a promoted frame that is on-stack when the events are
// enabled deoptimizes to the instrumented interpreter at its next call
// boundary.
func (v *VM) EnableMethodEvents(on bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.methodEvents = on
	v.jitDisabled = on
	if on {
		for _, c := range v.classes {
			for _, m := range c.methods {
				m.compiled = false
				m.promoted = false
			}
		}
	}
}

// MethodEventsEnabled reports whether method events are being delivered.
func (v *VM) MethodEventsEnabled() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.methodEvents
}

// JITDisabled reports whether JIT compilation is currently suppressed.
func (v *VM) JITDisabled() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.jitDisabled
}

// JITCompiledCount returns how many methods the JIT model has compiled.
func (v *VM) JITCompiledCount() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.jitCompiled
}

// SetNativeMethodPrefix announces a native-method prefix (JVMTI 1.1,
// Section II-B-e of the paper). Prefixes apply in registration order when
// resolving native methods whose plain symbol lookup fails.
func (v *VM) SetNativeMethodPrefix(prefix string) error {
	if prefix == "" {
		return fmt.Errorf("vm: empty native method prefix")
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	v.prefixes = append(v.prefixes, prefix)
	return nil
}

// NativeMethodPrefixes returns the announced prefixes.
func (v *VM) NativeMethodPrefixes() []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	return append([]string(nil), v.prefixes...)
}

// LoadLibrary registers a native library, the analogue of
// System.loadLibrary(String). Conflicting symbols are rejected.
func (v *VM) LoadLibrary(lib NativeLibrary) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	for sym := range lib.Funcs {
		if _, dup := v.natives[sym]; dup {
			return fmt.Errorf("vm: native symbol %s already registered", sym)
		}
	}
	for sym, fn := range lib.Funcs {
		if fn == nil {
			return fmt.Errorf("vm: native symbol %s has nil implementation", sym)
		}
		v.natives[sym] = fn
	}
	return nil
}

// RegisterNative registers a single native function under the symbol
// "Class.name(Desc)". It is the analogue of the JNI RegisterNatives call
// and refuses what LoadLibrary refuses: a symbol already registered, or
// a nil implementation.
func (v *VM) RegisterNative(class, name, desc string, fn NativeFunc) error {
	sym := class + "." + name + desc
	v.mu.Lock()
	defer v.mu.Unlock()
	if _, dup := v.natives[sym]; dup {
		return fmt.Errorf("vm: native symbol %s already registered", sym)
	}
	if fn == nil {
		return fmt.Errorf("vm: native symbol %s has nil implementation", sym)
	}
	v.natives[sym] = fn
	return nil
}

// LoadClass links one class into the VM after running the ClassFileLoad
// hook and the bytecode verifier. A class whose content this process has
// already loaded and verified reuses the stored verdict, decoded bodies,
// dispatch metadata and lowering (see classimage.go).
func (v *VM) LoadClass(def *classfile.Class) (*Class, error) {
	if v.hooks.ClassFileLoad != nil {
		if replaced := v.hooks.ClassFileLoad(def); replaced != nil {
			def = replaced
		}
	}
	img, err := loadImage(def)
	if err != nil {
		return nil, err
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if _, dup := v.classes[def.Name]; dup {
		return nil, fmt.Errorf("vm: class %s already loaded", def.Name)
	}
	c := &Class{
		def:     def,
		methods: make(map[string]*Method, len(def.Methods)),
		statics: make(map[string]*int64),
	}
	for _, f := range def.Fields {
		if f.Flags.Has(classfile.AccStatic) {
			val := f.Init
			c.statics[f.Name] = &val
		}
	}
	methods := make([]Method, len(def.Methods))
	for i, md := range def.Methods {
		m := &methods[i]
		m.Class, m.Def, m.methodImage = c, md, img[i]
		if n := len(md.Refs); n > 0 && m.instrs != nil {
			m.refMethods = make([]*Method, n)
			m.refStatics = make([]*int64, n)
		}
		c.methods[md.Key()] = m
	}
	v.classes[def.Name] = c
	v.classesLoaded++
	v.relinkLocked(c)
	return c, nil
}

// relinkLocked fills call-site and static-slot caches after a class is
// linked into the VM: the new class's own refs resolve against everything
// already present, and other classes' dangling refs that name the new
// class resolve against it. It runs under v.mu on every class load, so a
// ref resolves through the cache as soon as its target class is linked; a
// nil cache entry at execution time therefore means the target is
// genuinely absent. Caches are never written on the execution path, which
// keeps the interpreter's reads race-free.
func (v *VM) relinkLocked(loaded *Class) {
	name := loaded.def.Name
	for _, c := range v.classes {
		for _, m := range c.methods {
			for k := range m.refMethods {
				// A ref names either a method or a field; once its class
				// was seen, the other lookup has failed definitively.
				if m.refMethods[k] != nil || m.refStatics[k] != nil {
					continue
				}
				ref := m.Def.Refs[k]
				if c != loaded && ref.Class != name {
					continue
				}
				rc, ok := v.classes[ref.Class]
				if !ok {
					continue
				}
				m.refMethods[k] = rc.Method(ref.Name, ref.Desc)
				m.refStatics[k] = rc.Static(ref.Name)
			}
		}
	}
}

// LoadClasses links a set of classes in order.
func (v *VM) LoadClasses(defs []*classfile.Class) error {
	for _, d := range defs {
		if _, err := v.LoadClass(d); err != nil {
			return err
		}
	}
	return nil
}

// Class returns the loaded class by name, or an error.
func (v *VM) Class(name string) (*Class, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.classes[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchClass, name)
	}
	return c, nil
}

// ClassesLoaded returns the number of classes linked so far.
func (v *VM) ClassesLoaded() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.classesLoaded
}

// resolveMethod resolves a method reference.
func (v *VM) resolveMethod(ref classfile.Ref) (*Method, error) {
	c, err := v.Class(ref.Class)
	if err != nil {
		return nil, err
	}
	m := c.Method(ref.Name, ref.Desc)
	if m == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchMethod, ref.String())
	}
	return m, nil
}

// resolveStatic resolves a static field reference to its storage.
func (v *VM) resolveStatic(ref classfile.Ref) (*int64, error) {
	c, err := v.Class(ref.Class)
	if err != nil {
		return nil, err
	}
	p := c.Static(ref.Name)
	if p == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchField, ref.String())
	}
	return p, nil
}

// linkNative resolves the implementation of a native method, following the
// JNI resolution strategy extended with the JVMTI prefix retry: the plain
// symbol "Class.name(Desc)" is tried first; if it is missing and the method
// name starts with an announced prefix, the prefix is stripped and the
// lookup retried. This reproduces the mechanism that lets the instrumenter
// rename native methods (Figure 2) while the unchanged native library still
// links.
func (v *VM) linkNative(m *Method) error {
	if m.native != nil {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	tryNames := []string{m.Def.Name}
	name := m.Def.Name
	for _, p := range v.prefixes {
		if strings.HasPrefix(name, p) {
			name = strings.TrimPrefix(name, p)
			tryNames = append(tryNames, name)
		}
	}
	for _, n := range tryNames {
		sym := m.Class.Name() + "." + n + m.Def.Desc
		if fn, ok := v.natives[sym]; ok {
			m.native = fn
			m.nativeName = sym
			return nil
		}
	}
	return fmt.Errorf("%w: %s (tried %v)", ErrUnsatisfiedLink, m.FullName(), tryNames)
}

// maybeCompile applies the JIT model on method entry: the simulated
// interp→compiled cost promotion, and — when a template tier is enabled —
// host-level promotion to a compiled trace unit. The two are independent:
// the first changes simulated cycle costs (the paper's JIT model), the
// second only how fast the host executes them.
func (v *VM) maybeCompile(m *Method) {
	if m.Def.IsNative() {
		return
	}
	m.invocations++
	if v.opts.Tier != jit.EngineInterp {
		v.maybePromote(m)
	}
	if m.compiled || v.jitDisabled {
		return
	}
	if m.invocations >= v.opts.JITThreshold {
		m.compiled = true
		v.mu.Lock()
		v.jitCompiled++
		v.mu.Unlock()
	}
}

// CompileThresholdEffective is the invocation count at which the template
// tier promotes: Options.CompileThreshold, or the JIT model's threshold
// when unset.
func (v *VM) CompileThresholdEffective() uint64 {
	if v.opts.CompileThreshold > 0 {
		return v.opts.CompileThreshold
	}
	return v.opts.JITThreshold
}

// needsPerInstruction reports whether some observer requires the
// interpreter's per-instruction semantics right now: an installed tracer,
// an active sampling hook, or a forced instrumented loop. Frames never
// enter the block executor while it holds.
func (v *VM) needsPerInstruction() bool {
	return v.tracer != nil || v.opts.ForceInstrumentedLoop ||
		(v.opts.SampleInterval != 0 && v.hooks.Sample != nil)
}

// maybePromote promotes a hot bytecode method: from its next entry on,
// its frames count as compiled frames. Lowering failures pin the method
// to the interpreter permanently — compilation is a performance event,
// never a correctness one.
func (v *VM) maybePromote(m *Method) {
	if m.promoted || m.unitFailed || v.jitDisabled || len(m.instrs) == 0 {
		return
	}
	if m.invocations < v.CompileThresholdEffective() {
		return
	}
	// Auto defers to the observers: promoting while every frame would
	// deoptimize anyway is pure waste. EngineJIT promotes regardless; the
	// per-frame dispatch still keeps observed runs on the instrumented
	// loop.
	if v.opts.Tier == jit.EngineAuto && v.needsPerInstruction() {
		return
	}
	if m.lowered == nil {
		m.unitFailed = true
		v.tierFailures++
		return
	}
	m.promoted = true
	v.tierCompiled++
}

// TierStats returns the template tier's bookkeeping: the VM's promotion
// and frame-level execution counters, and the per-method tier-2 detail
// (op-free instructions of interpreted frames' batches) summed across
// every loaded method.
func (v *VM) TierStats() jit.Stats {
	s := jit.Stats{
		Engine:          v.opts.Tier,
		MethodsCompiled: v.tierCompiled,
		CompileFailures: v.tierFailures,
		CompiledFrames:  v.tierFrames,
		DeoptFrames:     v.tierDeopts,
		FallbackChunks:  v.tierFallbacks,
	}
	v.mu.Lock()
	for _, c := range v.classes {
		for _, m := range c.methods {
			if m.superExec == 0 {
				continue
			}
			s.SuperinstrPairs += m.superExec
			row := jit.MethodStats{
				Method:     m.FullName(),
				SuperPairs: m.superExec,
			}
			if u := m.lowered; u != nil {
				for bi := range u.Blocks {
					b := &u.Blocks[bi]
					row.FusedPairs += int(b.OpFree)
					for ci := range b.Chunks {
						if b.Chunks[ci].Pure {
							row.StraightInstrs += int(b.Chunks[ci].N)
						}
					}
				}
			}
			s.PerMethod = append(s.PerMethod, row)
		}
	}
	v.mu.Unlock()
	sort.Slice(s.PerMethod, func(i, j int) bool {
		return s.PerMethod[i].Method < s.PerMethod[j].Method
	})
	return s
}

// plainEnv is the fallback JNI environment used when internal/jni has not
// installed an interceptable function table. Native-to-Java calls go
// straight into the interpreter.
type plainEnv struct {
	t *Thread
}

func (e *plainEnv) Thread() *Thread { return e.t }
func (e *plainEnv) VM() *VM         { return e.t.vm }
func (e *plainEnv) Work(n uint64)   { e.t.chargeNative(n) }

func (e *plainEnv) CallStatic(class, method, desc string, args ...int64) (int64, error) {
	return e.t.InvokeStatic(class, method, desc, args...)
}

// CallStatic1 passes its argument in a frame-arena window, as
// InvokeVirtual passes a receiver, so nothing escapes.
func (e *plainEnv) CallStatic1(class, method, desc string, arg int64) (int64, error) {
	w, base := e.t.pushFrameRaw(1)
	w[0] = arg
	r, err := e.t.InvokeStatic(class, method, desc, w...)
	e.t.popFrame(base)
	return r, err
}

func (e *plainEnv) CallVirtual(class, method, desc string, recv int64, args ...int64) (int64, error) {
	return e.t.InvokeVirtual(class, method, desc, recv, args...)
}

func (e *plainEnv) NewArray(length int64) (int64, error) {
	return e.t.newArray(nil, -1, length, -1)
}

func (e *plainEnv) ArrayLoad(handle, index int64) (int64, error) {
	return e.t.vm.Heap.Load(handle, index)
}

func (e *plainEnv) ArrayStore(handle, index, value int64) error {
	return e.t.vm.Heap.Store(handle, index, value)
}

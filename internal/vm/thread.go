package vm

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"

	"repro/internal/cycles"
)

// parkKind tells the scheduler why a thread handed back the baton.
type parkKind int

const (
	parkYield parkKind = iota
	parkDone
)

// Thread is a simulated JVM thread. Threads execute cooperatively: a
// deterministic round-robin scheduler grants the "baton" to one thread at a
// time, and the interpreter yields it back every Options.Quantum
// instructions. Because only one thread runs at any instant and yield
// points are deterministic, whole-VM runs are exactly reproducible.
type Thread struct {
	id      cycles.ThreadID
	name    string
	vm      *VM
	counter *cycles.Counter

	entry     *Method
	entryArgs []int64
	isMain    bool
	detached  bool

	resume chan struct{}
	parked chan parkKind

	budget      int
	depth       int
	nativeDepth int
	nextSample  uint64

	// stackReserved is set once the goroutine's stack has been grown up
	// front by reserveStack; only threads whose call trees actually reach
	// reserveDepth ever pay for the reservation.
	stackReserved bool

	// arena backs the locals and operand stacks of this thread's
	// interpreter frames (see pushFrameRaw); arenaOff is the high-water
	// offset of the active frame stack.
	arena    []int64
	arenaOff int

	// frames mirrors the active bytecode frames (innermost last) for the
	// collector's root scan. Each record holds the frame slice and the
	// operand-stack depth at the last *canonical point* — an invoke, an
	// allocation, or a yield — which is the only stack prefix the
	// collector may read: the template tier elides dead stack writes, so
	// slots above the recorded depth can differ between engines. The
	// execution loops refresh the depth exactly where another thread
	// could observe the frame (before invokes and before parking on the
	// scheduler baton), so a scan never sees a non-canonical prefix.
	frames []frameRef

	// Ground-truth cycle attribution, maintained by the execution engine
	// independently of any profiling agent. Used by tests and the harness
	// to validate agent accuracy — the paper had no such oracle.
	gtBytecode uint64
	gtNative   uint64
	gtOverhead uint64
	gtGC       uint64
	// instrExec counts executed bytecode instructions (interpreted or
	// compiled), the oracle for instruction-counting profilers.
	instrExec uint64

	result int64
	err    error

	env Env

	// upcalls caches the thread's by-name resolutions (resolveUpcall).
	upcalls []upcall

	// jvmtiLocal is the JVMTI thread-local storage slot, owned by the
	// jvmti layer. It lives on the thread (as in a real JVM) so agent
	// event handlers reach it without a lock: all accesses happen on the
	// executing thread under the scheduler baton.
	jvmtiLocal any
}

// SetJVMTILocal stores the JVMTI thread-local value for this thread.
func (t *Thread) SetJVMTILocal(data any) { t.jvmtiLocal = data }

// JVMTILocal returns the JVMTI thread-local value, or nil.
func (t *Thread) JVMTILocal() any { return t.jvmtiLocal }

// ID returns the thread's identifier.
func (t *Thread) ID() cycles.ThreadID { return t.id }

// Name returns the thread's name.
func (t *Thread) Name() string { return t.name }

// VM returns the owning VM.
func (t *Thread) VM() *VM { return t.vm }

// IsMain reports whether this is the bootstrapping thread, for which JVMTI
// signals no ThreadStart event.
func (t *Thread) IsMain() bool { return t.isMain }

// Cycles returns the thread's current virtual cycle count.
func (t *Thread) Cycles() uint64 { return t.counter.Read() }

// Result returns the value produced by the thread's entry method.
func (t *Thread) Result() int64 { return t.result }

// Err returns the error with which the thread terminated, if any.
func (t *Thread) Err() error { return t.err }

// AdvanceCycles adds n cycles to the thread's counter, attributed to
// profiling overhead. Agents use it to model the cost of their own handler
// code, which perturbs the measurement exactly as real agent code does.
func (t *Thread) AdvanceCycles(n uint64) {
	t.counter.Advance(n)
	t.gtOverhead += n
	t.maybeSample(t.nativeDepth > 0)
}

// maybeSample delivers PC-sampling hook events for every sampling-interval
// boundary the thread's counter has crossed, charging the interrupt cost.
func (t *Thread) maybeSample(inNative bool) {
	iv := t.vm.opts.SampleInterval
	if iv == 0 || t.vm.hooks.Sample == nil {
		return
	}
	now := t.counter.Read()
	crossings := 0
	for now >= t.nextSample {
		crossings++
		t.nextSample += iv
	}
	if crossings == 0 {
		return
	}
	if cost := uint64(crossings) * t.vm.opts.SampleCost; cost > 0 {
		t.counter.Advance(cost)
		t.gtOverhead += cost
		// Skip any boundaries the interrupt cost itself crossed; they
		// would otherwise re-trigger immediately.
		now = t.counter.Read()
		for now >= t.nextSample {
			t.nextSample += iv
		}
	}
	for i := 0; i < crossings; i++ {
		t.vm.hooks.Sample(t, inNative)
	}
}

// NativeWork advances the thread's counter by n cycles attributed to
// native-code execution. JNI environments use it to model native work.
func (t *Thread) NativeWork(n uint64) {
	t.chargeNative(n)
}

func (t *Thread) chargeInterp(n uint64) {
	t.counter.Advance(n)
	t.gtBytecode += n
	t.maybeSample(false)
}

func (t *Thread) chargeNative(n uint64) {
	t.counter.Advance(n)
	t.gtNative += n
	t.maybeSample(true)
}

// chargeGC attributes simulated collection-pause cycles to the thread
// that triggered the collection — the new ground-truth component beside
// bytecode, native and overhead cycles.
func (t *Thread) chargeGC(n uint64) {
	t.counter.Advance(n)
	t.gtGC += n
	t.maybeSample(false)
}

// GCCycles returns the collection-pause cycles charged to this thread.
func (t *Thread) GCCycles() uint64 { return t.gtGC }

// InstructionsExecuted returns how many bytecode instructions the thread
// has executed.
func (t *Thread) InstructionsExecuted() uint64 { return t.instrExec }

// GroundTruth returns the engine-maintained cycle attribution:
// cycles spent executing bytecode (interpreted or compiled), cycles spent
// in native code, and cycles added by profiling machinery (event dispatch
// and agent handler work).
func (t *Thread) GroundTruth() (bytecodeCycles, nativeCycles, overheadCycles uint64) {
	return t.gtBytecode, t.gtNative, t.gtOverhead
}

// Env returns the thread's JNI environment, creating it on first use via
// the VM's EnvFactory.
func (t *Thread) Env() Env {
	if t.env == nil {
		t.env = t.vm.EnvFactory(t)
	}
	return t.env
}

// initialArenaWords sizes a thread's first frame arena. 4096 words cover
// dozens of typical frames without growth.
const initialArenaWords = 4096

// pushFrameRaw carves one interpreter frame of need words (locals
// followed by the operand stack) out of the thread's arena, replacing
// the two per-call slice allocations the interpreter historically made.
// The frame comes back unsplit: interpret slices off the locals/stack
// views for the dispatch loops, and the compiled-unit executor addresses
// locals and operand-stack homes through the flat slot array directly.
// The returned base is the previous arena offset, which the caller must
// hand back to popFrame when the frame dies.
//
// Pooling invariant: frame slices must not escape the interpret call that
// owns them. Callees receive argument windows into the caller's operand
// stack and copy them into their own locals before executing; nothing
// else may retain a frame slice.
//
// Growth takes a fresh backing array without copying: suspended frames
// keep referencing the old array through their own slices, and the
// region below the current offset in the new array is never read before
// being rewritten by a future frame. The array is a spare from a
// released VM when the heap adopted one (Heap.takeFrameArena), so its
// contents are stale, like the slots a popped frame leaves behind: a
// frame's locals past its arguments are cleared on push, operand-stack
// slots are written before they are read, and the collector's root scan
// reads only each frame's canonical prefix.
func (t *Thread) pushFrameRaw(need int) (frame []int64, base int) {
	base = t.arenaOff
	if base+need > len(t.arena) {
		size := 2 * len(t.arena)
		if size < base+need {
			size = base + need
		}
		if size < initialArenaWords {
			size = initialArenaWords
		}
		t.arena = t.vm.Heap.takeFrameArena(size)
	}
	frame = t.arena[base : base+need : base+need]
	t.arenaOff = base + need
	return frame, base
}

// popFrame releases every frame pushed after base.
func (t *Thread) popFrame(base int) { t.arenaOff = base }

// yield hands the baton back to the scheduler. Detached threads (unit-test
// helpers outside the scheduler) never block.
func (t *Thread) yield() {
	if t.detached {
		return
	}
	t.parked <- parkYield
	<-t.resume
}

// scheduler implements deterministic cooperative round-robin scheduling.
type scheduler struct {
	v  *VM
	mu sync.Mutex
	// queue holds live scheduler-managed threads in creation order.
	queue []*Thread
	// next is the rotation cursor.
	next int
}

func newScheduler(v *VM) *scheduler {
	return &scheduler{v: v}
}

// add registers a thread and starts its goroutine parked on the baton.
func (s *scheduler) add(t *Thread) {
	s.mu.Lock()
	s.queue = append(s.queue, t)
	s.mu.Unlock()
	go t.run()
}

// pick returns the next runnable thread, rotating fairly, or nil when no
// threads remain.
func (s *scheduler) pick() *Thread {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.queue) == 0 {
		return nil
	}
	if s.next >= len(s.queue) {
		s.next = 0
	}
	t := s.queue[s.next]
	s.next++
	return t
}

// remove drops a finished thread from the queue.
func (s *scheduler) remove(t *Thread) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, q := range s.queue {
		if q == t {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			if s.next > i {
				s.next--
			}
			return
		}
	}
}

// loop drives all threads to completion.
func (s *scheduler) loop() {
	for {
		t := s.pick()
		if t == nil {
			return
		}
		t.resume <- struct{}{}
		if k := <-t.parked; k == parkDone {
			s.remove(t)
		}
	}
}

// reserveStack forces the goroutine's stack up to roughly n*16KiB in a
// few large hops. Deep simulated recursion (the chain workloads descend
// hundreds of frames, several host frames each) otherwise crosses the
// runtime's growth boundary mid-descent, and every doubling then copies
// and adjusts the whole deep live stack — repeatedly, since collections
// shrink the stack back between descents. The invoke path calls this
// once per thread, the first time a call tree reaches reserveDepth, so
// only threads that actually recurse pay for the reservation.
//
//go:noinline
func reserveStack(n int) byte {
	var pad [16 << 10]byte
	if n > 0 {
		return reserveStack(n-1) + pad[0]
	}
	return pad[0]
}

// reserveDepth is the simulated call depth that triggers the one-time
// stack reservation — deep enough that shallow call trees never pay it,
// shallow enough that the copy it implies is still small.
const reserveDepth = 64

// run is the body of a scheduler-managed thread goroutine. Its deferred
// recover is the process's panic firewall: a host-level panic anywhere
// under CallStatic — a native function, an agent hook, an engine defect
// — becomes a typed *TrapError on the thread instead of a process death,
// and the deferred parkDone hands the baton back so the scheduler loop
// never deadlocks on a dead thread.
func (t *Thread) run() {
	<-t.resume
	defer func() {
		if r := recover(); r != nil {
			t.err = &TrapError{ThreadName: t.name, Value: r, Stack: debug.Stack()}
		}
		t.vm.Clock.Unregister(t.id)
		t.parked <- parkDone
	}()
	if !t.isMain && t.vm.hooks.ThreadStart != nil {
		t.AdvanceCycles(t.vm.opts.CostEventDispatch)
		t.vm.hooks.ThreadStart(t)
	}
	// Launch the entry method through the JNI environment, as the real
	// JVM launcher invokes main via CallStaticVoidMethod: every thread's
	// first bytecode frame is entered from native code, so a JNI
	// interception agent observes an initial N2J transition.
	t.result, t.err = t.Env().CallStatic(
		t.entry.Class.Name(), t.entry.Name(), t.entry.Desc(), t.entryArgs...)
	if t.vm.hooks.ThreadEnd != nil {
		t.AdvanceCycles(t.vm.opts.CostEventDispatch)
		t.vm.hooks.ThreadEnd(t)
	}
}

// newThread allocates a thread and registers its cycle counter.
func (v *VM) newThread(name string, entry *Method, args []int64, main bool) *Thread {
	v.mu.Lock()
	id := cycles.ThreadID(len(v.threadsEver) + 1)
	v.mu.Unlock()
	t := &Thread{
		id:        id,
		name:      name,
		vm:        v,
		entry:     entry,
		entryArgs: args,
		isMain:    main,
		resume:    make(chan struct{}),
		parked:    make(chan parkKind),
		budget:    v.opts.Quantum,
	}
	if v.opts.SampleInterval > 0 {
		t.nextSample = v.opts.SampleInterval
	}
	t.counter = v.Clock.Register(id)
	v.mu.Lock()
	v.threadsEver = append(v.threadsEver, t)
	v.mu.Unlock()
	return t
}

// SpawnThread creates and schedules a new thread whose entry point is the
// given static method. It may be called from native code while the VM runs
// (the workloads' warehouse threads are created this way) or before Run.
func (v *VM) SpawnThread(name, class, method, desc string, args ...int64) (*Thread, error) {
	m, err := v.lookupStatic(class, method, desc)
	if err != nil {
		return nil, err
	}
	t := v.newThread(name, m, args, false)
	v.sched.add(t)
	return t, nil
}

// NewDetachedThread creates a thread that is not scheduler-managed: it
// never yields and fires no thread events. It exists for unit tests and
// for harness code that needs to execute a method synchronously.
func (v *VM) NewDetachedThread(name string) *Thread {
	t := v.newThread(name, nil, nil, false)
	t.detached = true
	return t
}

// lookup resolves a method by name.
func (v *VM) lookup(class, method, desc string) (*Method, error) {
	c, err := v.Class(class)
	if err != nil {
		return nil, err
	}
	m := c.Method(method, desc)
	if m == nil {
		return nil, fmt.Errorf("%w: %s.%s%s", ErrNoSuchMethod, class, method, desc)
	}
	return m, nil
}

// lookupStatic resolves a static method by name.
func (v *VM) lookupStatic(class, method, desc string) (*Method, error) {
	m, err := v.lookup(class, method, desc)
	if err != nil {
		return nil, err
	}
	if !m.Def.IsStatic() {
		return nil, fmt.Errorf("vm: %s is not static", m.FullName())
	}
	return m, nil
}

// Run executes the static main method of the given class on the
// bootstrapping thread, drives every spawned thread to completion, fires
// VMDeath, and returns the main thread's result. A VM instance runs once.
func (v *VM) Run(class, method, desc string, args ...int64) (int64, error) {
	v.mu.Lock()
	if v.halted {
		v.mu.Unlock()
		return 0, ErrHalted
	}
	v.halted = true
	v.mu.Unlock()

	m, err := v.lookupStatic(class, method, desc)
	if err != nil {
		return 0, err
	}
	main := v.newThread("main", m, args, true)
	v.sched.add(main)
	v.sched.loop()
	if v.hooks.VMDeath != nil {
		v.hooks.VMDeath()
	}
	if main.err == nil {
		// A trapped panic on a worker thread must fail the run even when
		// main finished cleanly — the simulation's state after a trap is
		// not trustworthy. Only traps propagate from workers: a worker's
		// simulated exception (Thrown) remains thread-local, as before.
		for _, t := range v.Threads() {
			var trap *TrapError
			if errors.As(t.err, &trap) {
				return main.result, trap
			}
		}
	}
	return main.result, main.err
}

// Threads returns every thread ever created on this VM, in creation order.
func (v *VM) Threads() []*Thread {
	v.mu.Lock()
	defer v.mu.Unlock()
	return append([]*Thread(nil), v.threadsEver...)
}

// InstructionsExecuted sums executed bytecode instructions across all
// threads.
func (v *VM) InstructionsExecuted() uint64 {
	var sum uint64
	for _, t := range v.Threads() {
		sum += t.instrExec
	}
	return sum
}

// TotalCycles sums the final cycle counts of all threads. With a single
// CPU, this is the run's execution-time metric.
func (v *VM) TotalCycles() uint64 {
	var sum uint64
	for _, t := range v.Threads() {
		sum += t.counter.Read()
	}
	return sum
}

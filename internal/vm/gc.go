package vm

// This file owns the execution-side half of the generational heap
// simulation (the space/ledger half lives in heap.go): the per-thread
// frame records the collector's root scan reads, the allocation entry
// point the dispatch loops call, and the collection orchestration that
// charges pause cost and delivers the JVMTI allocation/GC events.

// frameRef mirrors one active bytecode frame for the root scan.
type frameRef struct {
	// fr is the full frame slice: locals followed by the operand stack.
	fr []int64
	// nl is the number of local slots.
	nl int32
	// sp is the operand-stack depth at the frame's last canonical point.
	// Only fr[:nl+sp] may be scanned; higher slots can hold engine-
	// dependent garbage (the template tier elides dead stack writes).
	sp int32
}

// pushFrameRef records a new innermost bytecode frame.
func (t *Thread) pushFrameRef(fr []int64, nl int) {
	t.frames = append(t.frames, frameRef{fr: fr, nl: int32(nl)})
}

// popFrameRef drops the innermost frame record.
func (t *Thread) popFrameRef() {
	t.frames = t.frames[:len(t.frames)-1]
}

// setFrameSP refreshes the innermost frame's canonical stack depth. The
// dispatch loops call it at every point another thread (and therefore the
// collector) could observe the frame: before invokes, at allocation
// sites, and before parking on the scheduler baton.
func (t *Thread) setFrameSP(sp int) {
	if n := len(t.frames); n > 0 {
		t.frames[n-1].sp = int32(sp)
	}
}

// yieldAt is yield with the canonical stack depth recorded first, so a
// collection triggered by another thread while this one is parked scans
// exactly the live operand-stack prefix.
func (t *Thread) yieldAt(sp int) {
	t.setFrameSP(sp)
	t.yield()
}

// maybeYieldAt is maybeYield for the instrumented loop: it records the
// canonical depth only when the quantum actually expires.
func (t *Thread) maybeYieldAt(sp int) {
	t.budget--
	if t.budget <= 0 {
		t.budget = t.vm.opts.Quantum
		t.yieldAt(sp)
	}
}

// scanRoots enumerates every word the collector must treat as a
// potential handle: the canonical prefix of every thread's frames, entry
// arguments and results of spawned threads, and all static fields. It
// runs under the scheduler baton (collections trigger only from the
// executing thread), so the unlocked reads are ordered exactly like the
// heap accesses themselves. Map iteration order is irrelevant: marking
// is set-membership, insensitive to visit order.
func (v *VM) scanRoots(visit func(word int64)) {
	for _, t := range v.threadsEver {
		for i := range t.frames {
			f := &t.frames[i]
			for _, w := range f.fr[:int(f.nl)+int(f.sp)] {
				visit(w)
			}
		}
		for _, w := range t.entryArgs {
			visit(w)
		}
		visit(t.result)
	}
	for _, c := range v.classes {
		for _, p := range c.statics {
			visit(*p)
		}
	}
}

// anyThreadInNative reports whether any thread is currently inside a
// native frame. Collections are deferred while one is: handles held in
// native Go locals are invisible to the root scan, so collecting under a
// native frame could free a live array. The next bytecode-side
// allocation with every thread out of native triggers the deferred
// collection — a deterministic point, since thread states at a given
// allocation are themselves deterministic.
func (v *VM) anyThreadInNative() bool {
	for _, t := range v.threadsEver {
		if t.nativeDepth > 0 {
			return true
		}
	}
	return false
}

// EnableAllocationEvents turns per-allocation hook delivery on or off
// (the JVMTI VMObjectAlloc event). Like every hook, a delivered event
// charges CostEventDispatch to the allocating thread.
func (v *VM) EnableAllocationEvents(on bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.allocEvents = on
}

// EnableGCEvents turns collection-event delivery on or off.
func (v *VM) EnableGCEvents(on bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.gcEvents = on
}

// GCStats returns the heap's cumulative allocation/collection ledger.
func (v *VM) GCStats() GCStats { return v.Heap.Stats() }

// GCCycles sums the collection-pause cycles charged across all threads.
func (v *VM) GCCycles() uint64 {
	var sum uint64
	for _, t := range v.Threads() {
		sum += t.gtGC
	}
	return sum
}

// newArray is the dispatch loops' allocation entry point: it records the
// caller's canonical stack depth, triggers any due collections, performs
// the allocation, and delivers the allocation event. m and at identify
// the allocation site (the method and code offset of the allocating
// instruction); native-side allocations pass nil/-1 with sp < 0.
//
// Every executor (block executor, instrumented loop) funnels
// through here at the same bytecode boundaries with identical heap and
// frame state, which is what keeps collection points, pause costs and
// survivor sets byte-identical across engines.
func (t *Thread) newArray(m *Method, at int, length int64, sp int) (int64, error) {
	v := t.vm
	h := v.Heap
	if sp >= 0 {
		t.setFrameSP(sp)
	}
	if length >= 0 && h.NeedsMinor(uint64(length)) && !v.anyThreadInNative() {
		t.runGC(GCMinor)
		if h.NeedsMajor() {
			t.runGC(GCMajor)
		}
	}
	if length >= 0 && h.ExceedsLimit(uint64(length)) {
		// Collections already ran (or are deferred by a native frame);
		// the surviving occupancy genuinely cannot fit this allocation.
		// Throw the simulated OutOfMemoryError: catchable by the
		// workload, a typed failed cell for the campaign — never a host
		// panic.
		return 0, Throw(length, "OutOfMemoryError")
	}
	handle, err := h.Alloc(length, Site{Method: m, At: at})
	if err != nil {
		return 0, err
	}
	if v.allocEvents && v.hooks.Allocation != nil {
		t.AdvanceCycles(v.opts.CostEventDispatch)
		v.hooks.Allocation(t, m, at, length, handle)
	}
	return handle, nil
}

// NativeNewArray allocates an array on behalf of native code running on
// this thread — the JNI layer's allocation entry point. The allocation
// feeds the ledgers and fires the allocation event (site "native"), but
// can never trigger a collection directly: this thread is inside a
// native frame, and collections are deferred while any thread is.
func (t *Thread) NativeNewArray(length int64) (int64, error) {
	return t.newArray(nil, -1, length, -1)
}

// runGC runs one collection of the given kind on this thread: the pause
// cost lands on the triggering thread's cycle counter (the single-CPU
// model — a stop-the-world pause is time nobody else can use either),
// and the GC event fires after the cost is charged, as a real agent
// observes it.
func (t *Thread) runGC(kind GCKind) {
	v := t.vm
	var info GCInfo
	if kind == GCMajor {
		info = v.Heap.CollectMajor()
	} else {
		info = v.Heap.CollectMinor()
	}
	t.chargeGC(info.Cost)
	if v.gcEvents && v.hooks.GC != nil {
		t.AdvanceCycles(v.opts.CostEventDispatch)
		v.hooks.GC(t, info)
	}
}

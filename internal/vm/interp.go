package vm

import (
	"fmt"

	"repro/internal/bytecode"
	"repro/internal/jit"
)

// InvokeStatic resolves and invokes a static method on this thread. It is
// the entry point used by native code (through the JNI layer) and by the
// harness.
func (t *Thread) InvokeStatic(class, method, desc string, args ...int64) (int64, error) {
	m, err := t.resolveUpcall(class, method, desc)
	if err != nil {
		return 0, err
	}
	if !m.Def.IsStatic() {
		return 0, fmt.Errorf("vm: %s is not static", m.FullName())
	}
	return t.invoke(m, args)
}

// InvokeVirtual resolves and invokes an instance method on this thread.
// Dynamic dispatch resolves through the declared class only (the simulator
// has no subclass hierarchies); the receiver word travels as args[0].
func (t *Thread) InvokeVirtual(class, method, desc string, recv int64, args ...int64) (int64, error) {
	m, err := t.resolveUpcall(class, method, desc)
	if err != nil {
		return 0, err
	}
	if m.Def.IsStatic() {
		return 0, fmt.Errorf("vm: %s is static, expected instance method", m.FullName())
	}
	// The receiver+args window comes from the frame arena: invoke reads
	// it before the callee runs, and a native callee that holds it while
	// it calls back in gets its own window, since nested calls push above.
	full, base := t.pushFrameRaw(len(args) + 1)
	full[0] = recv
	copy(full[1:], args)
	r, err := t.invoke(m, full)
	t.popFrame(base)
	return r, err
}

// upcall is one cached by-name resolution (see resolveUpcall).
type upcall struct {
	class, method, desc string
	m                   *Method
}

// resolveUpcall resolves a by-name call into Java once per thread, as
// native code resolves a jmethodID once: classes are never redefined, so
// a successful resolution holds for the VM's lifetime. Only the thread's
// own goroutine, holding the scheduler baton, touches the cache, so a hit
// takes no lock. Native code names its targets with the same few strings
// call after call, so a linear scan hits on the first entries, mostly by
// comparing string pointers. Failures are not cached: a class loaded
// later resolves then.
func (t *Thread) resolveUpcall(class, method, desc string) (*Method, error) {
	for i := range t.upcalls {
		if u := &t.upcalls[i]; u.method == method && u.class == class && u.desc == desc {
			return u.m, nil
		}
	}
	m, err := t.vm.lookup(class, method, desc)
	if err != nil {
		return nil, err
	}
	t.upcalls = append(t.upcalls, upcall{class, method, desc, m})
	return m, nil
}

// invoke runs one method on this thread: JIT bookkeeping, method events,
// native linking and dispatch, and exceptional-exit event delivery.
//
// args may be a window into the caller's operand stack (see the pooling
// invariant on pushFrameRaw); it is only read before the callee starts
// executing, never retained.
func (t *Thread) invoke(m *Method, args []int64) (ret int64, err error) {
	if t.depth >= t.vm.opts.MaxFrames {
		return 0, Throw(int64(t.depth), "StackOverflowError")
	}
	if m.Def.IsAbstract() {
		return 0, fmt.Errorf("vm: invoke of abstract method %s", m.FullName())
	}
	if len(args) != m.argWords {
		return 0, fmt.Errorf("vm: %s expects %d argument words, got %d",
			m.FullName(), m.argWords, len(args))
	}
	t.depth++
	if t.depth == reserveDepth && !t.stackReserved {
		t.stackReserved = true
		reserveStack(64)
	}

	t.vm.maybeCompile(m)
	// Invocation overhead belongs to the caller's side: a call made from
	// native code (JNI invocation) spends its marshalling cycles in
	// native code, which is also where a transition-based profiler
	// attributes them.
	if t.nativeDepth > 0 {
		t.chargeNative(t.vm.opts.CostInvoke)
	} else {
		t.chargeInterp(t.vm.opts.CostInvoke)
	}

	if tr := t.vm.tracer; tr != nil {
		tr.enter(t, m)
	}
	hooks := t.vm.hooks
	events := t.vm.methodEvents
	if events && hooks.MethodEntry != nil {
		t.AdvanceCycles(t.vm.opts.CostEventDispatch)
		hooks.MethodEntry(t, m)
	}

	if m.Def.IsNative() {
		ret, err = t.invokeNative(m, args)
	} else {
		ret, err = t.interpret(m, args)
	}

	// MethodExit fires on both normal and exceptional exit (Section II).
	if events && hooks.MethodExit != nil {
		t.AdvanceCycles(t.vm.opts.CostEventDispatch)
		hooks.MethodExit(t, m)
	}
	if tr := t.vm.tracer; tr != nil {
		tr.exit(t, m, err)
	}
	t.depth--
	return ret, err
}

// invokeNative links (with prefix retry) and runs a native method.
func (t *Thread) invokeNative(m *Method, args []int64) (int64, error) {
	if err := t.vm.linkNative(m); err != nil {
		return 0, err
	}
	t.vm.countNativeCall()
	t.chargeNative(t.vm.opts.CostNativeCall)
	t.nativeDepth++
	ret, err := m.native(t.Env(), args)
	t.nativeDepth--
	return ret, err
}

// interpret executes a bytecode method body.
//
// The frame (locals + operand stack) comes from the thread's arena rather
// than two fresh allocations, and dispatch selects the executor per
// frame: the fully observable interpretInstrumented loop whenever a
// per-instruction observer is installed (tracer, active sampling hook,
// ForceInstrumentedLoop — compiled code never runs then, the tier's
// deoptimization contract) or the method's lowering failed; otherwise
// the block executor, on the method's promoted unit when the template
// tier has promoted it and on its load-time lowering when not. All
// engines produce identical observable state — cycle counts, ground
// truth, instruction counts, yield points and results — which the
// differential tests in this package and internal/harness pin down.
func (t *Thread) interpret(m *Method, args []int64) (int64, error) {
	nl := m.Def.MaxLocals
	v := t.vm
	need := nl + m.Def.MaxStack
	var u *jit.Unit
	lowering := false
	if !v.needsPerInstruction() {
		if u = m.unit; u != nil && !v.jitDisabled {
			// Compiled frames reserve the scratch area inline-expanded
			// callees run in, above the method's own slots.
			need = u.NumSlots + u.ScratchSlots
		} else {
			u, lowering = m.lowered, true
		}
	}
	frame, base := t.pushFrameRaw(need)
	locals := frame[:nl:nl]
	stack := frame[nl:]
	n := copy(locals, args)
	clear(locals[n:])
	t.pushFrameRef(frame, nl)

	var ret int64
	var err error
	if u != nil {
		ret, err = t.runCompiled(m, u, frame, locals, stack, lowering)
	} else {
		ret, err = t.interpretInstrumented(m, locals, stack)
	}
	// Not deferred: the VM never recovers panics, so the only exits that
	// matter are these returns, and skipping the defer keeps the per-call
	// overhead down on this very hot path.
	t.popFrameRef()
	t.popFrame(base)
	return ret, err
}

// flushInterp publishes the block executor's deferred accounting: done
// instructions at cost cycles each (cycle counter, ground truth,
// instruction count) plus the shadowed yield budget. The executor calls
// it at every point an external observer could read thread state —
// before invokes, before yielding the baton, and on every exit.
func (t *Thread) flushInterp(done, cost uint64, budget int) {
	t.instrExec += done
	t.counter.Advance(done * cost)
	t.gtBytecode += done * cost
	t.budget = budget
}

// interpretInstrumented is the fully observable dispatch loop: it keeps
// the historical per-instruction sequence — tracer callback, instruction
// count, chargeInterp (which delivers samples) and maybeYieldAt — for runs
// with a tracer, an active sampling hook, or ForceInstrumentedLoop set.
func (t *Thread) interpretInstrumented(m *Method, locals, stack []int64) (int64, error) {
	cost := t.vm.opts.CostInterp
	if m.compiled {
		cost = t.vm.opts.CostCompiled
	}
	return t.interpretInstrumentedFrom(m, locals, stack, 0, 0, cost)
}

// interpretInstrumentedFrom is interpretInstrumented starting at an
// arbitrary instruction index and stack depth — the deoptimization entry
// point. A compiled frame that must leave the template tier mid-method
// (a tracer installed by native code, method events enabled, a relink
// under its feet) hands its exact frame state here and the rest of the
// activation runs with full per-instruction semantics. cost is passed in
// rather than re-derived because every engine captures the per-
// instruction cost at frame entry: a de-optimization that flipped
// m.compiled mid-frame (method events) must not change what the rest of
// this activation is charged.
func (t *Thread) interpretInstrumentedFrom(m *Method, locals, stack []int64, idx, sp int, cost uint64) (int64, error) {
	heap := t.vm.Heap
	instrs := m.instrs

	for {
		if idx >= len(instrs) {
			return 0, fmt.Errorf("vm: %s: fell off end of code", m.FullName())
		}
		in := &instrs[idx]
		if tr := t.vm.tracer; tr != nil {
			tr.instruction(t, m, *in)
		}
		t.instrExec++
		t.chargeInterp(cost)
		t.maybeYieldAt(sp)

		var thrown *Thrown
		branched := false

		switch in.Op {
		case bytecode.OpNop:
		case bytecode.OpConst:
			stack[sp] = m.Def.Consts[in.Operand]
			sp++
		case bytecode.OpIconst0:
			stack[sp] = 0
			sp++
		case bytecode.OpIconst1:
			stack[sp] = 1
			sp++
		case bytecode.OpLoad:
			stack[sp] = locals[in.Operand]
			sp++
		case bytecode.OpStore:
			sp--
			locals[in.Operand] = stack[sp]
		case bytecode.OpInc:
			locals[in.Operand] += int64(in.Extra)
		case bytecode.OpAdd:
			stack[sp-2] += stack[sp-1]
			sp--
		case bytecode.OpSub:
			stack[sp-2] -= stack[sp-1]
			sp--
		case bytecode.OpMul:
			stack[sp-2] *= stack[sp-1]
			sp--
		case bytecode.OpDiv:
			b, a := stack[sp-1], stack[sp-2]
			sp -= 2
			if b == 0 {
				thrown = Throw(a, "ArithmeticException: / by zero")
			} else {
				stack[sp] = a / b
				sp++
			}
		case bytecode.OpRem:
			b, a := stack[sp-1], stack[sp-2]
			sp -= 2
			if b == 0 {
				thrown = Throw(a, "ArithmeticException: % by zero")
			} else {
				stack[sp] = a % b
				sp++
			}
		case bytecode.OpNeg:
			stack[sp-1] = -stack[sp-1]
		case bytecode.OpShl:
			stack[sp-2] <<= uint64(stack[sp-1]) & 63
			sp--
		case bytecode.OpShr:
			stack[sp-2] >>= uint64(stack[sp-1]) & 63
			sp--
		case bytecode.OpAnd:
			stack[sp-2] &= stack[sp-1]
			sp--
		case bytecode.OpOr:
			stack[sp-2] |= stack[sp-1]
			sp--
		case bytecode.OpXor:
			stack[sp-2] ^= stack[sp-1]
			sp--
		case bytecode.OpDup:
			stack[sp] = stack[sp-1]
			sp++
		case bytecode.OpPop:
			sp--
		case bytecode.OpSwap:
			stack[sp-1], stack[sp-2] = stack[sp-2], stack[sp-1]
		case bytecode.OpGoto:
			idx = int(m.operands[idx])
			branched = true
		case bytecode.OpIfeq, bytecode.OpIfne, bytecode.OpIflt,
			bytecode.OpIfge, bytecode.OpIfgt, bytecode.OpIfle:
			sp--
			if cond1(in.Op, stack[sp]) {
				idx = int(m.operands[idx])
				branched = true
			}
		case bytecode.OpIfcmpeq, bytecode.OpIfcmpne,
			bytecode.OpIfcmplt, bytecode.OpIfcmpge:
			b, a := stack[sp-1], stack[sp-2]
			sp -= 2
			if cond2(in.Op, a, b) {
				idx = int(m.operands[idx])
				branched = true
			}
		case bytecode.OpInvokeStatic, bytecode.OpInvokeVirtual:
			callee := m.refMethods[in.Operand]
			if callee == nil {
				resolved, err := t.vm.resolveMethod(m.Def.Refs[in.Operand])
				if err != nil {
					return 0, fmt.Errorf("vm: %s at %d: %w", m.FullName(), in.Offset, err)
				}
				callee = resolved
			}
			sp -= callee.argWords
			t.setFrameSP(sp)
			r, err := t.invoke(callee, stack[sp:sp+callee.argWords])
			if err != nil {
				if th, ok := AsThrown(err); ok {
					thrown = th
				} else {
					return 0, err
				}
			} else if callee.returns {
				stack[sp] = r
				sp++
			}
		case bytecode.OpReturn:
			return 0, nil
		case bytecode.OpIreturn:
			return stack[sp-1], nil
		case bytecode.OpGetStatic:
			p := m.refStatics[in.Operand]
			if p == nil {
				resolved, err := t.vm.resolveStatic(m.Def.Refs[in.Operand])
				if err != nil {
					return 0, fmt.Errorf("vm: %s at %d: %w", m.FullName(), in.Offset, err)
				}
				p = resolved
			}
			stack[sp] = *p
			sp++
		case bytecode.OpPutStatic:
			p := m.refStatics[in.Operand]
			if p == nil {
				resolved, err := t.vm.resolveStatic(m.Def.Refs[in.Operand])
				if err != nil {
					return 0, fmt.Errorf("vm: %s at %d: %w", m.FullName(), in.Offset, err)
				}
				p = resolved
			}
			sp--
			*p = stack[sp]
		case bytecode.OpNewArray:
			sp--
			h, err := t.newArray(m, in.Offset, stack[sp], sp)
			if err != nil {
				if th, ok := AsThrown(err); ok {
					thrown = th
				} else {
					return 0, err
				}
			} else {
				stack[sp] = h
				sp++
			}
		case bytecode.OpALoad:
			i, h := stack[sp-1], stack[sp-2]
			sp -= 2
			val, err := heap.Load(h, i)
			if err != nil {
				if th, ok := AsThrown(err); ok {
					thrown = th
				} else {
					return 0, err
				}
			} else {
				stack[sp] = val
				sp++
			}
		case bytecode.OpAStore:
			val, i, h := stack[sp-1], stack[sp-2], stack[sp-3]
			sp -= 3
			if err := heap.Store(h, i, val); err != nil {
				if th, ok := AsThrown(err); ok {
					thrown = th
				} else {
					return 0, err
				}
			}
		case bytecode.OpArrayLen:
			n, err := heap.Length(stack[sp-1])
			if err != nil {
				sp--
				if th, ok := AsThrown(err); ok {
					thrown = th
				} else {
					return 0, err
				}
			} else {
				stack[sp-1] = n
			}
		case bytecode.OpThrow:
			sp--
			thrown = Throw(stack[sp], "")
		default:
			return 0, fmt.Errorf("vm: %s: unexpected opcode %s at %d",
				m.FullName(), in.Op, in.Offset)
		}

		if thrown != nil {
			h := m.handlerIdx[idx]
			if h < 0 {
				return 0, thrown
			}
			stack[0] = thrown.Value
			sp = 1
			idx = int(h)
			continue
		}
		if !branched {
			idx++
		}
	}
}

// cond1 evaluates single-operand comparisons against zero.
func cond1(op bytecode.Op, a int64) bool {
	switch op {
	case bytecode.OpIfeq:
		return a == 0
	case bytecode.OpIfne:
		return a != 0
	case bytecode.OpIflt:
		return a < 0
	case bytecode.OpIfge:
		return a >= 0
	case bytecode.OpIfgt:
		return a > 0
	case bytecode.OpIfle:
		return a <= 0
	}
	return false
}

// cond2 evaluates two-operand comparisons.
func cond2(op bytecode.Op, a, b int64) bool {
	switch op {
	case bytecode.OpIfcmpeq:
		return a == b
	case bytecode.OpIfcmpne:
		return a != b
	case bytecode.OpIfcmplt:
		return a < b
	case bytecode.OpIfcmpge:
		return a >= b
	}
	return false
}

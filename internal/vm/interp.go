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
	m, err := t.vm.lookupStatic(class, method, desc)
	if err != nil {
		return 0, err
	}
	return t.invoke(m, args)
}

// InvokeVirtual resolves and invokes an instance method on this thread.
// Dynamic dispatch resolves through the declared class only (the simulator
// has no subclass hierarchies); the receiver word travels as args[0].
func (t *Thread) InvokeVirtual(class, method, desc string, recv int64, args ...int64) (int64, error) {
	c, err := t.vm.Class(class)
	if err != nil {
		return 0, err
	}
	m := c.Method(method, desc)
	if m == nil {
		return 0, fmt.Errorf("%w: %s.%s%s", ErrNoSuchMethod, class, method, desc)
	}
	if m.Def.IsStatic() {
		return 0, fmt.Errorf("vm: %s is static, expected instance method", m.FullName())
	}
	full := append([]int64{recv}, args...)
	return t.invoke(m, full)
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
// than two fresh allocations, and dispatch selects the execution tier per
// frame: the fully observable interpretInstrumented loop whenever a
// per-instruction observer is installed (tracer, active sampling hook,
// ForceInstrumentedLoop — compiled code never runs then, the tier's
// deoptimization contract); otherwise the method's compiled trace unit
// when the template tier has promoted it, falling back to interpretFast.
// All three engines produce identical observable state — cycle counts,
// ground truth, instruction counts, yield points and results — which the
// differential tests in this package and internal/harness pin down.
func (t *Thread) interpret(m *Method, args []int64) (int64, error) {
	nl := m.Def.MaxLocals
	v := t.vm
	perInstr := v.needsPerInstruction()
	need := nl + m.Def.MaxStack
	var u *jit.Unit
	if !perInstr && !v.jitDisabled {
		if u = m.unit; u != nil {
			// Compiled frames reserve the scratch area inline-expanded
			// callees run in, above the method's own slots.
			need = u.NumSlots + u.ScratchSlots
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
		ret, err = t.runCompiled(m, u, frame, locals, stack)
	} else if !perInstr {
		ret, err = t.interpretFast(m, frame, locals, stack)
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

// flushInterp publishes the fast loop's deferred accounting: done
// instructions at cost cycles each (cycle counter, ground truth,
// instruction count) plus the shadowed yield budget. The fast loop calls
// it at every point an external observer could read thread state —
// before invokes, before yielding the baton, and on every exit.
func (t *Thread) flushInterp(done, cost uint64, budget int) {
	t.instrExec += done
	t.counter.Advance(done * cost)
	t.gtBytecode += done * cost
	t.budget = budget
}

// fastRun is one batch of the fast loop: a pure chunk of the method's
// lowering, charged as n instructions and executed by runOps. When the
// chunk runs up to its block's goto, if*, return or ireturn, term is that
// terminator, batched with the chunk and counted in n: the chunk's ops
// may have folded the terminator's operands away from the operand stack,
// so the two never run apart. Otherwise the fast loop resumes at
// instruction next with operand-stack depth sp. elided is the chunk's
// instructions without an op of their own (a chunk never lowers to more
// ops than it has instructions).
type fastRun struct {
	ops    []jit.Op
	term   *jit.Term
	n      int32
	next   int32
	sp     int32
	elided int32
}

// linkRuns indexes the pure chunks of m.lowered as fast-loop batches. A
// chunk ending in a throw gets no batch (the thrown value may be folded
// into its ops, and the throw runs on the per-instruction path), so the
// loop steps it singly.
func (m *Method) linkRuns() {
	u := m.lowered
	for bi := range u.Blocks {
		b := &u.Blocks[bi]
		for ci := range b.Chunks {
			ch := &b.Chunks[ci]
			if !ch.Pure {
				continue
			}
			r := fastRun{ops: ch.Ops, n: ch.N, next: ch.Start + ch.N,
				elided: ch.N - int32(len(ch.Ops))}
			if ci+1 < len(b.Chunks) {
				r.sp = b.Chunks[ci+1].SP
			} else {
				tm := &b.Term
				switch tm.Kind {
				case jit.TermThrow:
					continue
				case jit.TermGoto, jit.TermBr1, jit.TermBr2, jit.TermReturn, jit.TermIreturn:
					r.term = tm
					r.n++
				}
				r.sp = tm.SP
			}
			m.runs = append(m.runs, r)
			m.runAt[ch.Start] = int32(len(m.runs))
			m.straightInstrs += int(ch.N)
			m.fusedPairs += int(r.elided)
		}
	}
}

// interpretFast is the uninstrumented dispatch loop. Preconditions: no
// tracer, and sampling inactive (so chargeInterp's sample delivery can
// never fire). Under those preconditions per-instruction accounting
// (cycle charge, ground truth, instruction count, yield budget) reduces
// to pure arithmetic, so the loop accumulates it in locals and publishes
// via flushInterp only where an observer could look: calls, yield points
// and exits.
//
// Straight-line code runs as register ops: wherever one of the method
// lowering's pure chunks starts (see fastRun), the loop charges the whole
// chunk — plus its block's terminator, when batched with it — at once and
// executes the chunk's ops with runOps, the compiled tier's executor. The
// budget guard keeps every yield on exactly the instruction boundary the
// per-instruction path would use, and between flush points no other code
// runs on this VM (the scheduler baton serializes threads), so deferral
// is unobservable. The frame is canonical at every chunk boundary, so the
// per-instruction switch below takes over wherever no batch applies: a
// short budget, an effect, a throw, or an entry in the middle of a chunk
// after a yield.
//
// Dispatch reads the compact ops/operands arrays (one byte + one int32
// per instruction, branch targets pre-resolved to instruction indexes);
// the decoded Instruction slice is consulted only on error paths, for
// code offsets in messages.
func (t *Thread) interpretFast(m *Method, fr, locals, stack []int64) (int64, error) {
	v := t.vm
	opts := &v.opts
	heap := v.Heap
	ops := m.ops
	operands := m.operands
	consts := m.Def.Consts
	runAt := m.runAt
	runs := m.runs
	handlerIdx := m.handlerIdx
	refMethods := m.refMethods
	refStatics := m.refStatics

	cost := opts.CostInterp
	if m.compiled {
		cost = opts.CostCompiled
	}
	quantum := opts.Quantum

	// On-stack replacement: when the template tier is enabled, taken
	// backward branches count toward promoting this very activation into
	// compiled code mid-loop. One failed attempt disarms the frame — the
	// method is pinned, an observer appeared, or the branch target is not
	// a block head — so the hot path never re-checks a dead end.
	osr := opts.Tier != jit.EngineInterp && !v.jitDisabled
	var osrThresh uint64
	if osr {
		osrThresh = v.osrThresholdEffective()
	}

	var done uint64   // instructions executed since the last flush
	var elided uint64 // batched instructions without an op of their own
	budget := t.budget

	// Every exit but OSR leaves through the bottom of the loop with the
	// activation's outcome here, so the deferred accounting flushes in
	// one place.
	var ret int64
	var fail error

	idx := 0
	sp := 0
dispatch:
	for {
		if idx >= len(ops) {
			fail = fmt.Errorf("vm: %s: fell off end of code", m.FullName())
			break
		}

		taken := false // a branch at idx transfers to operands[idx]
		if k := runAt[idx]; k > 0 && budget > int(runs[k-1].n) {
			r := &runs[k-1]
			done += uint64(r.n)
			budget -= int(r.n)
			elided += uint64(r.elided)
			if len(r.ops) > 0 {
				runOps(nil, fr, r.ops)
			}
			tm := r.term
			if tm == nil {
				idx, sp = int(r.next), int(r.sp)
				continue
			}
			// The batched terminator, already accounted for. Its operands
			// are frame slots or immediates: the chunk's ops may have
			// folded them away from the operand stack.
			switch tm.Kind {
			case jit.TermGoto:
				taken = true
				sp = int(tm.SP)
			case jit.TermBr1:
				a := tm.ImmA
				if !tm.AImm {
					a = fr[tm.A]
				}
				taken = cond1(bytecode.Op(tm.Cond), a)
				sp = int(tm.SP) - 1
			case jit.TermBr2:
				a, b := tm.ImmA, tm.ImmB
				if !tm.AImm {
					a = fr[tm.A]
				}
				if !tm.BImm {
					b = fr[tm.B]
				}
				taken = cond2(bytecode.Op(tm.Cond), a, b)
				sp = int(tm.SP) - 2
			case jit.TermIreturn:
				ret = tm.ImmA
				if !tm.AImm {
					ret = fr[tm.A]
				}
				break dispatch
			default: // jit.TermReturn
				break dispatch
			}
			idx = int(tm.Idx)
		} else {
			done++
			budget--
			if budget <= 0 {
				t.flushInterp(done, cost, quantum)
				done = 0
				budget = quantum
				t.yieldAt(sp)
			}

			var thrown *Thrown
			switch ops[idx] {
			case bytecode.OpNop:
			case bytecode.OpConst:
				stack[sp] = consts[operands[idx]]
				sp++
			case bytecode.OpIconst0:
				stack[sp] = 0
				sp++
			case bytecode.OpIconst1:
				stack[sp] = 1
				sp++
			case bytecode.OpLoad:
				stack[sp] = locals[operands[idx]]
				sp++
			case bytecode.OpStore:
				sp--
				locals[operands[idx]] = stack[sp]
			case bytecode.OpInc:
				v := operands[idx]
				locals[v&0xffff] += int64(v >> 16)
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
				taken = true
			case bytecode.OpIfeq, bytecode.OpIfne, bytecode.OpIflt,
				bytecode.OpIfge, bytecode.OpIfgt, bytecode.OpIfle:
				sp--
				taken = cond1(ops[idx], stack[sp])
			case bytecode.OpIfcmpeq, bytecode.OpIfcmpne,
				bytecode.OpIfcmplt, bytecode.OpIfcmpge:
				b, a := stack[sp-1], stack[sp-2]
				sp -= 2
				taken = cond2(ops[idx], a, b)
			case bytecode.OpInvokeStatic, bytecode.OpInvokeVirtual:
				// The charge for the invoke instruction itself lands before
				// the call, exactly as the per-instruction loop orders it.
				t.flushInterp(done, cost, budget)
				done = 0
				callee := refMethods[operands[idx]]
				if callee == nil {
					resolved, err := t.vm.resolveMethod(m.Def.Refs[operands[idx]])
					if err != nil {
						fail = fmt.Errorf("vm: %s at %d: %w", m.FullName(), m.instrs[idx].Offset, err)
						break dispatch
					}
					callee = resolved
				}
				sp -= callee.argWords
				t.setFrameSP(sp)
				r, err := t.invoke(callee, stack[sp:sp+callee.argWords])
				budget = t.budget // the callee shares the yield budget
				if err != nil {
					if th, ok := AsThrown(err); ok {
						thrown = th
					} else {
						fail = err
						break dispatch
					}
				} else if callee.returns {
					stack[sp] = r
					sp++
				}
			case bytecode.OpReturn:
				break dispatch
			case bytecode.OpIreturn:
				ret = stack[sp-1]
				break dispatch
			case bytecode.OpGetStatic:
				p := refStatics[operands[idx]]
				if p == nil {
					resolved, err := t.vm.resolveStatic(m.Def.Refs[operands[idx]])
					if err != nil {
						fail = fmt.Errorf("vm: %s at %d: %w", m.FullName(), m.instrs[idx].Offset, err)
						break dispatch
					}
					p = resolved
				}
				stack[sp] = *p
				sp++
			case bytecode.OpPutStatic:
				p := refStatics[operands[idx]]
				if p == nil {
					resolved, err := t.vm.resolveStatic(m.Def.Refs[operands[idx]])
					if err != nil {
						fail = fmt.Errorf("vm: %s at %d: %w", m.FullName(), m.instrs[idx].Offset, err)
						break dispatch
					}
					p = resolved
				}
				sp--
				*p = stack[sp]
			case bytecode.OpNewArray:
				sp--
				h, err := t.newArray(m, m.instrs[idx].Offset, stack[sp], sp)
				if err != nil {
					if th, ok := AsThrown(err); ok {
						thrown = th
					} else {
						fail = err
						break dispatch
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
						fail = err
						break dispatch
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
						fail = err
						break dispatch
					}
				}
			case bytecode.OpArrayLen:
				n, err := heap.Length(stack[sp-1])
				if err != nil {
					sp--
					if th, ok := AsThrown(err); ok {
						thrown = th
					} else {
						fail = err
						break dispatch
					}
				} else {
					stack[sp-1] = n
				}
			case bytecode.OpThrow:
				sp--
				thrown = Throw(stack[sp], "")
			default:
				fail = fmt.Errorf("vm: %s: unexpected opcode %s at %d",
					m.FullName(), ops[idx], m.instrs[idx].Offset)
				break dispatch
			}

			if thrown != nil {
				h := handlerIdx[idx]
				if h < 0 {
					fail = thrown
					break dispatch
				}
				stack[0] = thrown.Value
				sp = 1
				idx = int(h)
				continue
			}
		}

		if !taken {
			idx++
			continue
		}
		tgt := int(operands[idx])
		if osr && tgt <= idx {
			m.osrEdges++
			if m.osrEdges >= osrThresh {
				if u := v.promoteForOSR(m); u != nil && u.BlockOf[tgt] >= 0 {
					t.flushInterp(done, cost, budget)
					m.superExec += elided
					return t.enterOSR(m, u, locals, stack, u.BlockOf[tgt], sp, cost)
				}
				osr = false
			}
		}
		idx = tgt
	}
	t.flushInterp(done, cost, budget)
	m.superExec += elided
	return ret, fail
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

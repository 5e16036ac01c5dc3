package vm

import (
	"fmt"

	"repro/internal/bytecode"
	"repro/internal/jit"
)

// runCompiled executes one activation of the method's lowering u on the
// block executor, as a promoted frame when promoted is set and as an
// interpreted frame otherwise.
//
// Observational contract: the executor reproduces the instrumented
// loop's per-instruction accounting exactly. That accounting (cycle
// charge, ground truth, instruction count, yield budget) is pure
// arithmetic here, accumulated in locals and published via flushInterp
// only where an observer could look — before invokes, at yield points, on
// every exit. A pure chunk is charged as one batch only when the yield
// budget strictly exceeds its length; otherwise the chunk re-executes
// from the original bytecode one instruction at a time, so every yield
// lands on exactly the instruction boundary the instrumented loop would
// use. Effects and terminators charge singly, in that loop's order
// (count, yield check, then execute). A batch may also hold trapping ops
// (array access, div/rem); when one traps, the executor un-charges the
// rest of the block and dispatches the handler (see the trap exit after
// the block loop). Since a quantum boundary therefore falls after
// exactly the same instruction in every engine, multi-threaded
// interleavings — and with them every downstream observable — are
// byte-identical.
//
// Interpreted and promoted frames differ only in their tier bookkeeping.
// A promoted frame counts as a compiled frame, and after every invoke it
// re-checks the world: if a tracer appeared or method events
// de-optimized the VM, the rest of the activation deopts to the
// instrumented loop at the exact bytecode boundary — the frame layout is
// the interpreter's own (the lowering keeps every chunk boundary
// canonical), so the handoff is a pair of slice views, not a state
// reconstruction. An interpreted frame never deopts mid-frame; it
// tallies its batches' op-free instructions instead.
func (t *Thread) runCompiled(m *Method, u *jit.Unit, fr, locals, stack []int64, promoted bool) (int64, error) {
	v := t.vm
	cost := v.opts.CostInterp
	if m.compiled {
		cost = v.opts.CostCompiled
	}
	if p := u.Static; p != nil {
		if budget := t.budget; int64(budget) > p.Total {
			ret := t.runStatic(p, fr, cost, budget)
			if promoted {
				v.tierFrames++
			} else {
				m.superExec += uint64(p.OpFree)
			}
			return ret, nil
		}
	}
	return t.runBlocks(m, u, fr, locals, stack, cost, promoted)
}

// runStatic executes a whole counted-kernel activation per its compile-
// time plan: entry ops, body ops Trip times, exit ops, one flush for the
// activation's precomputed instruction total. Callers guard budget >
// Total, so no yield boundary can fall inside the activation, and every
// op is pure, so nothing can observe the frame mid-run — the charges and
// final frame state are exactly the block-by-block execution's.
func (t *Thread) runStatic(p *jit.StaticPlan, fr []int64, cost uint64, budget int) int64 {
	runOps(nil, fr, p.Entry)
	runStaticBody(fr, p.Body, p.Trip)
	runOps(nil, fr, p.Exit)
	var ret int64
	if p.HasRet {
		if p.RetImm {
			ret = p.RetImmVal
		} else {
			ret = fr[p.Ret]
		}
	}
	t.flushInterp(uint64(p.Total), cost, budget-int(p.Total))
	return ret
}

// runStaticBody runs a static plan's loop body trip times. The canonical
// generated kernel body — a multiply-add recurrence plus the counter
// step — runs with both slots cached in registers; anything else falls
// back to trip runOps passes, which still skips all per-iteration
// accounting and block dispatch.
func runStaticBody(fr []int64, ops []jit.Op, trip int64) {
	if len(ops) == 2 {
		o1, o2 := &ops[0], &ops[1]
		if o1.Kind == jit.KMulAddSII && o1.Dst == o1.A &&
			o2.Kind == jit.KAddSI && o2.Dst == o2.A && o1.Dst != o2.Dst {
			x, k := fr[o1.Dst], fr[o2.Dst]
			m1, c1, i2 := o1.Imm, o1.Imm2, o2.Imm
			for n := int64(0); n < trip; n++ {
				x = x*m1 + c1
				k += i2
			}
			fr[o1.Dst], fr[o2.Dst] = x, k
			return
		}
	}
	for n := int64(0); n < trip; n++ {
		runOps(nil, fr, ops)
	}
}

// runBlocks runs a unit block by block from its entry block, at the
// frame-entry cost runCompiled selected — its path past the static plan.
func (t *Thread) runBlocks(m *Method, u *jit.Unit, fr, locals, stack []int64, cost uint64,
	promoted bool) (int64, error) {
	v := t.vm
	opts := &v.opts
	heap := v.Heap
	quantum := opts.Quantum
	ml := u.MaxLocals
	if promoted {
		v.tierFrames++
	}

	var done uint64 // instructions executed since the last flush
	var free uint64 // op-free instructions of the batches charged
	budget := t.budget
	var bi int32
	// Every exit but a deopt handoff leaves the block loop with the
	// activation's outcome here, so the deferred accounting flushes in one
	// place. A batch whose op traps leaves it with the block and the op's
	// index instead; the handler dispatch after the loop re-enters it.
	var ret int64
	var fail error
	var trapB *jit.Block
	var trapK int

blocks:
	for {
		b := &u.Blocks[bi]
		// Fused loop fast path: the canonical header/body pair iterates
		// without per-iteration block dispatch (see fusedLoop).
		if b.LoopBody >= 0 {
			body := &u.Blocks[b.LoopBody]
			left := budget
			nb, rest, tb, tk := fusedLoop(heap, fr, b, body, budget)
			d := left - rest
			budget = rest
			done += uint64(d)
			// Only interpreted frames report their tally, and the tally's
			// division would cost promoted frames a few percent.
			if !promoted {
				free += loopOpFree(b, body, d)
			}
			if tb != nil {
				trapB, trapK = tb, tk
				break blocks
			}
			if nb >= 0 {
				bi = nb
				continue
			}
			// Budget short at the header: fall through to the general
			// handling of this block (its batch guard fails the same way).
		}
		tm := &b.Term
		if b.CanBatch && budget > int(b.NInstr) {
			// Block batch fast path: a block with only pure and may-trap
			// chunks is charged whole — terminator included — and its
			// flattened ops run with no per-chunk bookkeeping. The strict
			// budget guard keeps every yield on the exact instruction
			// boundary: a short budget drops to the per-chunk path below.
			done += uint64(b.NInstr)
			budget -= int(b.NInstr)
			free += uint64(b.OpFree)
			if len(b.Flat) > 0 {
				if k := runOps(heap, fr, b.Flat); k >= 0 {
					trapB, trapK = b, k
					break blocks
				}
			}
		} else {
			for ci := range b.Chunks {
				ch := &b.Chunks[ci]
				if ch.Pure {
					n := int(ch.N)
					if budget > n {
						done += uint64(n)
						budget -= n
						free += uint64(n - len(ch.Ops))
						if len(ch.Ops) > 0 {
							runOps(nil, fr, ch.Ops)
						}
					} else {
						// A quantum boundary falls inside the chunk: step
						// the original bytecode per instruction so the
						// yield lands on the exact boundary. The frame is
						// canonical at chunk entry, and per-instruction
						// execution leaves it canonical again.
						if promoted {
							v.tierFallbacks++
						}
						var err error
						done, budget, err = t.stepPureRange(m, fr, int(ch.Start), n, int(ch.SP), done, budget, cost, quantum)
						if err != nil {
							fail = err
							break blocks
						}
					}
					continue
				}

				// Effect: one instruction, charged singly in the
				// instrumented loop's order — count, yield check,
				// execute. The yield records the effect's entry stack
				// depth (the frame is canonical at chunk boundaries),
				// matching the depth that loop's pre-instruction yield
				// records.
				eff := &ch.Eff
				done++
				budget--
				if budget <= 0 {
					t.flushInterp(done, cost, quantum)
					done = 0
					budget = quantum
					t.yieldAt(int(eff.SP))
				}
				var thrown *Thrown
				idx := int(eff.Idx)
				base := ml + int(eff.SP)
				switch eff.Kind {
				case jit.EffTrap:
					if runOps(heap, fr, ch.Ops) >= 0 {
						thrown = trapThrown(heap, fr, &ch.Ops[0])
					}
				case jit.EffNewArray:
					h, err := t.newArray(m, m.instrs[idx].Offset, fr[base-1], int(eff.SP)-1)
					if err != nil {
						th, ok := AsThrown(err)
						if !ok {
							fail = err
							break blocks
						}
						thrown = th
					} else {
						fr[base-1] = h
					}
				case jit.EffGetStatic, jit.EffPutStatic:
					p := m.refStatics[eff.Ref]
					if p == nil {
						resolved, err := v.resolveStatic(m.Def.Refs[eff.Ref])
						if err != nil {
							fail = fmt.Errorf("vm: %s at %d: %w", m.FullName(), m.instrs[idx].Offset, err)
							break blocks
						}
						p = resolved
					}
					if eff.Kind == jit.EffGetStatic {
						fr[base] = *p
					} else {
						*p = fr[base-1]
					}
				case jit.EffInvoke:
					// The charge for the invoke instruction itself lands
					// before the call, exactly as the instrumented loop
					// orders it.
					t.flushInterp(done, cost, budget)
					done = 0
					callee := m.refMethods[eff.Ref]
					if callee == nil {
						resolved, err := v.resolveMethod(m.Def.Refs[eff.Ref])
						if err != nil {
							fail = fmt.Errorf("vm: %s at %d: %w", m.FullName(), m.instrs[idx].Offset, err)
							break blocks
						}
						callee = resolved
					}
					argBase := base - callee.argWords
					t.setFrameSP(int(eff.SP) - callee.argWords)
					r, err := t.invoke(callee, fr[argBase:base])
					budget = t.budget // the callee shares the yield budget
					sp := int(eff.SP) - callee.argWords
					if err != nil {
						th, ok := AsThrown(err)
						if !ok {
							fail = err
							break blocks
						}
						thrown = th
					} else if callee.returns {
						fr[ml+sp] = r
						sp++
					}
					// Mid-frame deoptimization of a promoted frame: the
					// callee may have installed a tracer or enabled method
					// events. Hand the rest of the activation to the
					// instrumented loop at this exact boundary.
					if promoted && (v.tracer != nil || v.jitDisabled) {
						v.tierDeopts++
						next := idx + 1
						if thrown != nil {
							h := m.handlerIdx[idx]
							if h < 0 {
								fail = thrown
								break blocks
							}
							stack[0] = thrown.Value
							next, sp = int(h), 1
						}
						t.flushInterp(done, cost, budget)
						return t.interpretInstrumentedFrom(m, locals, stack, next, sp, cost)
					}
				}
				if thrown != nil {
					if bi = throwAt(m, u, stack, idx, thrown); bi < 0 {
						fail = thrown
						break blocks
					}
					continue blocks
				}
			}

			// Terminator, charged singly like an effect.
			if tm.N > 0 {
				done++
				budget--
				if budget <= 0 {
					t.flushInterp(done, cost, quantum)
					done = 0
					budget = quantum
					t.yieldAt(int(tm.SP))
				}
			}
		}

		var taken bool
		switch tm.Kind {
		case jit.TermGoto:
			taken = true
		case jit.TermBr1:
			a := tm.ImmA
			if !tm.AImm {
				a = fr[tm.A]
			}
			taken = cond1(bytecode.Op(tm.Cond), a)
		case jit.TermBr2:
			a, bb2 := tm.ImmA, tm.ImmB
			if !tm.AImm {
				a = fr[tm.A]
			}
			if !tm.BImm {
				bb2 = fr[tm.B]
			}
			taken = cond2(bytecode.Op(tm.Cond), a, bb2)
		case jit.TermReturn:
			break blocks
		case jit.TermIreturn:
			ret = tm.ImmA
			if !tm.AImm {
				ret = fr[tm.A]
			}
			break blocks
		case jit.TermThrow:
			val := tm.ImmA
			if !tm.AImm {
				val = fr[tm.A]
			}
			thrown := Throw(val, "")
			if bi = throwAt(m, u, stack, int(tm.Idx), thrown); bi < 0 {
				fail = thrown
				break blocks
			}
			continue
		}
		if !taken { // a fallthrough, or a conditional branch not taken
			if tm.Next < 0 {
				fail = fmt.Errorf("vm: %s: fell off end of code", m.FullName())
				break blocks
			}
			bi = tm.Next
			continue
		}
		bi = tm.Target
	}

	if b := trapB; b != nil {
		// A batch trapped at op trapK of block b. The batch charged the
		// whole block up front; the instrumented loop would have charged
		// only up to and including the trapping instruction, so the
		// instructions after it are un-charged. The strict budget guard
		// that admitted the batch rules out a yield inside it, so this
		// arithmetic is exact.
		trapB = nil
		op := &b.Flat[trapK]
		idx := int(op.Imm)
		rest := int(b.Start+b.NInstr) - idx - 1
		done -= uint64(rest)
		budget += rest
		thrown := trapThrown(heap, fr, op)
		if bi = throwAt(m, u, stack, idx, thrown); bi >= 0 {
			goto blocks
		}
		fail = thrown
	}
	t.flushInterp(done, cost, budget)
	if !promoted {
		m.superExec += free
	}
	return ret, fail
}

// fusedLoop iterates the canonical header/body pair h, body (h.LoopBody)
// from the header with budget left, without per-iteration block
// dispatch. Charges and budget guards are exactly the per-block batch
// discipline, applied to header and body in turn, so accounting and
// yield boundaries are unchanged: the caller charges the instructions
// the budget lost. It returns the block to continue at — the exit edge's
// target, or the body when a yield boundary falls inside it — or -1 when
// the budget is short at the header (the caller's general handling of h
// fails its batch guard the same way), or the trapping op that stopped it.
func fusedLoop(heap *Heap, fr []int64, h, body *jit.Block, budget int) (next int32, left int, trapB *jit.Block, trapK int) {
	hn, bn := int(h.NInstr), int(body.NInstr)
	tm := &h.Term
	for budget > hn {
		budget -= hn
		if len(h.Flat) > 0 {
			if k := runOps(heap, fr, h.Flat); k >= 0 {
				return -1, budget, h, k
			}
		}
		var taken bool
		if tm.Kind == jit.TermBr1 {
			a := tm.ImmA
			if !tm.AImm {
				a = fr[tm.A]
			}
			taken = cond1(bytecode.Op(tm.Cond), a)
		} else {
			a, b := tm.ImmA, tm.ImmB
			if !tm.AImm {
				a = fr[tm.A]
			}
			if !tm.BImm {
				b = fr[tm.B]
			}
			taken = cond2(bytecode.Op(tm.Cond), a, b)
		}
		if taken { // loop exit edge
			return tm.Target, budget, nil, 0
		}
		if budget <= bn { // yield boundary inside the body
			return tm.Next, budget, nil, 0
		}
		budget -= bn // bn includes the back-edge goto's charge
		if k := runOps(heap, fr, body.Flat); k >= 0 {
			return -1, budget, body, k
		}
	}
	return -1, budget, nil, 0
}

// loopOpFree is the op-free tally of a fused loop over h and body that
// charged d instructions: whole iterations, plus a header charged alone
// on the way out. A loop that left before a whole iteration skips the
// division.
func loopOpFree(h, body *jit.Block, d int) uint64 {
	var free uint64
	if n := int(h.NInstr + body.NInstr); d >= n {
		free = uint64(d/n) * uint64(h.OpFree+body.OpFree)
		d %= n
	}
	if d != 0 {
		free += uint64(h.OpFree)
	}
	return free
}

// runOps executes a fused op sequence against the flat frame and returns
// -1, or the index of the trapping op that stopped it. A trapping op that
// traps has left the frame untouched; trapThrown names its exception.
// heap may be nil for sequences without trapping ops.
func runOps(heap *Heap, fr []int64, ops []jit.Op) int {
	for oi := range ops {
		op := &ops[oi]
		switch op.Kind {
		case jit.KMov:
			fr[op.Dst] = fr[op.A]
		case jit.KMovI:
			fr[op.Dst] = op.Imm
		case jit.KSwap:
			fr[op.A], fr[op.B] = fr[op.B], fr[op.A]
		case jit.KNeg:
			fr[op.Dst] = -fr[op.A]
		case jit.KAddSS:
			fr[op.Dst] = fr[op.A] + fr[op.B]
		case jit.KAddSI:
			fr[op.Dst] = fr[op.A] + op.Imm
		case jit.KSubSS:
			fr[op.Dst] = fr[op.A] - fr[op.B]
		case jit.KSubSI:
			fr[op.Dst] = fr[op.A] - op.Imm
		case jit.KSubIS:
			fr[op.Dst] = op.Imm - fr[op.A]
		case jit.KMulSS:
			fr[op.Dst] = fr[op.A] * fr[op.B]
		case jit.KMulSI:
			fr[op.Dst] = fr[op.A] * op.Imm
		case jit.KMulAddSII:
			fr[op.Dst] = fr[op.A]*op.Imm + op.Imm2
		case jit.KAndSS:
			fr[op.Dst] = fr[op.A] & fr[op.B]
		case jit.KAndSI:
			fr[op.Dst] = fr[op.A] & op.Imm
		case jit.KOrSS:
			fr[op.Dst] = fr[op.A] | fr[op.B]
		case jit.KOrSI:
			fr[op.Dst] = fr[op.A] | op.Imm
		case jit.KXorSS:
			fr[op.Dst] = fr[op.A] ^ fr[op.B]
		case jit.KXorSI:
			fr[op.Dst] = fr[op.A] ^ op.Imm
		case jit.KShlSS:
			fr[op.Dst] = fr[op.A] << (uint64(fr[op.B]) & 63)
		case jit.KShlSI:
			fr[op.Dst] = fr[op.A] << (uint64(op.Imm) & 63)
		case jit.KShlIS:
			fr[op.Dst] = op.Imm << (uint64(fr[op.A]) & 63)
		case jit.KShrSS:
			fr[op.Dst] = fr[op.A] >> (uint64(fr[op.B]) & 63)
		case jit.KShrSI:
			fr[op.Dst] = fr[op.A] >> (uint64(op.Imm) & 63)
		case jit.KShrIS:
			fr[op.Dst] = op.Imm >> (uint64(fr[op.A]) & 63)
		case jit.KDivSS:
			d := fr[op.B]
			if d == 0 {
				return oi
			}
			fr[op.Dst] = fr[op.A] / d
		case jit.KRemSS:
			d := fr[op.B]
			if d == 0 {
				return oi
			}
			fr[op.Dst] = fr[op.A] % d
		case jit.KALoad:
			a, i := heap.lookup(fr[op.A]), fr[op.B]
			if uint64(i) >= uint64(len(a)) {
				return oi
			}
			fr[op.Dst] = a[i]
		case jit.KAStore:
			a, i := heap.lookup(fr[op.A]), fr[op.B]
			if uint64(i) >= uint64(len(a)) {
				return oi
			}
			a[i] = fr[op.Dst]
		case jit.KArrayLen:
			a := heap.lookup(fr[op.A])
			if a == nil {
				return oi
			}
			fr[op.Dst] = int64(len(a))
		}
	}
	return -1
}

// trapThrown is the exception of a trapping op that trapped: the checked
// Heap path rebuilds it from the operands the op left untouched, so it is
// exactly the one the interpreter throws.
func trapThrown(heap *Heap, fr []int64, op *jit.Op) *Thrown {
	var err error
	switch op.Kind {
	case jit.KDivSS:
		return Throw(fr[op.A], "ArithmeticException: / by zero")
	case jit.KRemSS:
		return Throw(fr[op.A], "ArithmeticException: % by zero")
	case jit.KALoad:
		_, err = heap.Load(fr[op.A], fr[op.B])
	case jit.KAStore:
		err = heap.Store(fr[op.A], fr[op.B], fr[op.Dst])
	case jit.KArrayLen:
		_, err = heap.Length(fr[op.A])
	}
	return err.(*Thrown)
}

// throwAt dispatches thrown, raised by instruction idx: it pushes the
// exception value and returns the covering handler's block (Lower makes
// every handler a block leader), or -1 when no handler covers idx.
func throwAt(m *Method, u *jit.Unit, stack []int64, idx int, thrown *Thrown) int32 {
	h := m.handlerIdx[idx]
	if h < 0 {
		return -1
	}
	stack[0] = thrown.Value
	return u.BlockOf[h]
}

// stepPureRange executes n straight-line bytecode instructions beginning
// at instruction index start with per-instruction accounting — the block
// executor's yield-boundary fallback. sp is the operand-stack depth at
// entry. It returns the updated deferred-accounting state, which the
// caller flushes.
//
// It is the only straight-line stepper besides the instrumented loop's
// own switch, and it reads the link-time dispatch arrays (including the
// OpInc slot|delta<<16 operand packing from linkDispatch) where that
// loop reads decoded instructions. The quanta tests run hostile quanta
// (1 to 12, and 7 in TestJITYieldBoundariesMatchInterp) precisely so this
// fallback executes constantly and any divergence from the instrumented
// loop fails loudly.
func (t *Thread) stepPureRange(m *Method, fr []int64, start, n, sp int,
	done uint64, budget int, cost uint64, quantum int) (uint64, int, error) {

	ops := m.ops
	operands := m.operands
	consts := m.Def.Consts
	ml := m.Def.MaxLocals
	stack := fr[ml:]
	for idx := start; idx < start+n; idx++ {
		done++
		budget--
		if budget <= 0 {
			t.flushInterp(done, cost, quantum)
			done = 0
			budget = quantum
			t.yieldAt(sp)
		}
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
			stack[sp] = fr[operands[idx]]
			sp++
		case bytecode.OpStore:
			sp--
			fr[operands[idx]] = stack[sp]
		case bytecode.OpInc:
			v := operands[idx]
			fr[v&0xffff] += int64(v >> 16)
		case bytecode.OpAdd:
			stack[sp-2] += stack[sp-1]
			sp--
		case bytecode.OpSub:
			stack[sp-2] -= stack[sp-1]
			sp--
		case bytecode.OpMul:
			stack[sp-2] *= stack[sp-1]
			sp--
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
		default:
			return done, budget, fmt.Errorf("vm: %s: non-straight-line opcode %s in compiled chunk at %d",
				m.FullName(), ops[idx], m.instrs[idx].Offset)
		}
	}
	return done, budget, nil
}

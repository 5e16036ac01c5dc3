package vm

import (
	"fmt"

	"repro/internal/bytecode"
	"repro/internal/jit"
)

// runCompiled executes one method activation on its compiled trace unit.
//
// Observational contract: the compiled tier reproduces the fast loop's
// deferred-accounting discipline exactly. Per-instruction accounting
// (cycle charge, ground truth, instruction count, yield budget) is pure
// arithmetic here too, accumulated in locals and published via
// flushInterp only where an observer could look — before invokes, at
// yield points, on every exit. A pure chunk is charged as one batch only
// when the yield budget strictly exceeds its length; otherwise the chunk
// re-executes from the original bytecode one instruction at a time, so
// every yield lands on exactly the instruction boundary the interpreter
// would use. Effects and terminators charge singly, in the interpreter's
// order (count, yield check, then execute). A batch may also hold
// trapping ops (array access, div/rem); when one traps, the executor
// un-charges the rest of the block and dispatches the handler (see the
// trap exit after the block loop). Since a quantum boundary
// therefore falls after exactly the same instruction in every engine,
// multi-threaded interleavings — and with them every downstream
// observable — are byte-identical.
//
// Deoptimization: after every invoke the executor re-checks the world.
// If a tracer appeared, method events de-optimized the VM, or a class
// load bumped the relink epoch, the remaining activation deopts to the
// instrumented interpreter at the exact bytecode boundary — the frame
// layout is the interpreter's own (the lowering keeps every chunk
// boundary canonical), so the handoff is a pair of slice views, not a
// state reconstruction.
func (t *Thread) runCompiled(m *Method, u *jit.Unit, fr, locals, stack []int64) (int64, error) {
	cost := t.vm.opts.CostInterp
	if m.compiled {
		cost = t.vm.opts.CostCompiled
	}
	if p := u.Static; p != nil {
		if budget := t.budget; int64(budget) > p.Total {
			return t.runStatic(p, fr, cost, budget), nil
		}
	}
	return t.runCompiledFrom(m, u, fr, locals, stack, 0, cost)
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
	t.vm.tierFrames++
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

// runCompiledFrom is runCompiled from an arbitrary block index with the
// frame-entry cost supplied by the caller — the entry point shared by
// normal frame entry (block 0), on-stack replacement (the loop-header
// block, with the cost the interpreted frame captured at entry), and
// inline-expanded calls (block 0 of the callee's private unit).
func (t *Thread) runCompiledFrom(m *Method, u *jit.Unit, fr, locals, stack []int64, bi int32, cost uint64) (int64, error) {
	v := t.vm
	opts := &v.opts
	heap := v.Heap
	quantum := opts.Quantum
	ml := u.MaxLocals
	startEpoch := v.tier.Epoch()
	v.tierFrames++

	var done uint64 // instructions executed since the last flush
	budget := t.budget
	// A batch whose op traps leaves the block loop with the block and
	// the op's index here; the handler dispatch after the loop re-enters
	// it.
	var trapB *jit.Block
	var trapK int

blocks:
	for {
		b := &u.Blocks[bi]
		// Fused loop fast path: the canonical header/body pair iterates
		// here without per-iteration block dispatch. Charges and budget
		// guards are exactly the per-block batch discipline, applied to
		// header and body in turn, so accounting and yield boundaries
		// are unchanged; any short budget drops back to the general
		// paths at the right block.
		if b.LoopBody >= 0 {
			body := &u.Blocks[b.LoopBody]
			hn, bn := int(b.NInstr), int(body.NInstr)
			tm := &b.Term
			// Specialized counted-loop kernels: a bare single-compare
			// header over a two-op body covers the canonical generated
			// loops (accumulate-and-decrement, multiply-add-and-step).
			// Same charges, same budget guards, same exit edges as the
			// generic fused loop below — just with the ops unrolled into
			// straight-line Go so the per-iteration dispatch disappears.
			// A short budget or an unmatched shape falls through; the
			// generic loop's entry guard decides from there.
			if len(b.Flat) == 0 && tm.Kind == jit.TermBr1 && !tm.AImm && len(body.Flat) == 2 {
				o1, o2 := &body.Flat[0], &body.Flat[1]
				cnd := bytecode.Op(tm.Cond)
				ts := tm.A
				if o1.Kind == jit.KAddSS && o2.Kind == jit.KAddSI {
					d1, a1, b1 := o1.Dst, o1.A, o1.B
					d2, a2, i2 := o2.Dst, o2.A, o2.Imm
					for budget > hn {
						done += uint64(hn)
						budget -= hn
						if cond1(cnd, fr[ts]) {
							bi = tm.Target
							continue blocks
						}
						if budget <= bn {
							bi = tm.Next
							continue blocks
						}
						done += uint64(bn)
						budget -= bn
						fr[d1] = fr[a1] + fr[b1]
						fr[d2] = fr[a2] + i2
					}
				} else if o1.Kind == jit.KMulAddSII && o2.Kind == jit.KAddSI {
					d1, a1, m1, c1 := o1.Dst, o1.A, o1.Imm, o1.Imm2
					d2, a2, i2 := o2.Dst, o2.A, o2.Imm
					for budget > hn {
						done += uint64(hn)
						budget -= hn
						if cond1(cnd, fr[ts]) {
							bi = tm.Target
							continue blocks
						}
						if budget <= bn {
							bi = tm.Next
							continue blocks
						}
						done += uint64(bn)
						budget -= bn
						fr[d1] = fr[a1]*m1 + c1
						fr[d2] = fr[a2] + i2
					}
				}
			}
			for budget > hn {
				done += uint64(hn)
				budget -= hn
				if len(b.Flat) > 0 {
					if k := runOps(heap, fr, b.Flat); k >= 0 {
						trapB, trapK = b, k
						break blocks
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
					a, bb2 := tm.ImmA, tm.ImmB
					if !tm.AImm {
						a = fr[tm.A]
					}
					if !tm.BImm {
						bb2 = fr[tm.B]
					}
					taken = cond2(bytecode.Op(tm.Cond), a, bb2)
				}
				if taken { // loop exit edge
					bi = tm.Target
					continue blocks
				}
				if budget <= bn { // yield boundary inside the body
					bi = tm.Next
					continue blocks
				}
				done += uint64(bn)
				budget -= bn
				// bn includes the back-edge goto's charge.
				if k := runOps(heap, fr, body.Flat); k >= 0 {
					trapB, trapK = body, k
					break blocks
				}
			}
			// Budget short at the header: fall through to the general
			// handling of this block (its batch guard fails the same way).
		}
		// Block batch fast path: a block with only pure chunks is charged
		// whole — terminator included — and its flattened ops run with no
		// per-chunk bookkeeping. The strict budget guard keeps every
		// yield on the interpreter's exact instruction boundary: a short
		// budget drops to the general per-chunk path below.
		if b.CanBatch && budget > int(b.NInstr) {
			done += uint64(b.NInstr)
			budget -= int(b.NInstr)
			if len(b.Flat) > 0 {
				if k := runOps(heap, fr, b.Flat); k >= 0 {
					trapB, trapK = b, k
					break blocks
				}
			}
			tm := &b.Term
			switch tm.Kind {
			case jit.TermGoto:
				bi = tm.Target
				continue
			case jit.TermBr1:
				a := tm.ImmA
				if !tm.AImm {
					a = fr[tm.A]
				}
				if cond1(bytecode.Op(tm.Cond), a) {
					bi = tm.Target
					continue
				}
			case jit.TermBr2:
				a, bb2 := tm.ImmA, tm.ImmB
				if !tm.AImm {
					a = fr[tm.A]
				}
				if !tm.BImm {
					bb2 = fr[tm.B]
				}
				if cond2(bytecode.Op(tm.Cond), a, bb2) {
					bi = tm.Target
					continue
				}
			case jit.TermFall:
				if tm.Next < 0 {
					t.flushInterp(done, cost, budget)
					return 0, fmt.Errorf("vm: %s: fell off end of code", m.FullName())
				}
				bi = tm.Next
				continue
			case jit.TermReturn:
				t.flushInterp(done, cost, budget)
				return 0, nil
			case jit.TermIreturn:
				val := tm.ImmA
				if !tm.AImm {
					val = fr[tm.A]
				}
				t.flushInterp(done, cost, budget)
				return val, nil
			case jit.TermThrow:
				val := tm.ImmA
				if !tm.AImm {
					val = fr[tm.A]
				}
				nb, r, err := t.throwAt(m, u, locals, stack, int(tm.Idx), Throw(val, ""), done, budget, cost)
				if nb < 0 {
					return r, err
				}
				bi = nb
				continue
			}
			// Conditional branch fell through.
			if tm.Next < 0 {
				t.flushInterp(done, cost, budget)
				return 0, fmt.Errorf("vm: %s: fell off end of code", m.FullName())
			}
			bi = tm.Next
			continue
		}
		for ci := range b.Chunks {
			ch := &b.Chunks[ci]
			if ch.Pure {
				n := int(ch.N)
				if budget > n {
					done += uint64(n)
					budget -= n
					// Single-op chunks — the bulk of the pure code between
					// effects — execute inline; the kinds spelled out here
					// cover what the lowering emits for them (moves and the
					// add forms), everything else takes the general loop.
					if len(ch.Ops) == 1 {
						op := &ch.Ops[0]
						switch op.Kind {
						case jit.KMov:
							fr[op.Dst] = fr[op.A]
						case jit.KMovI:
							fr[op.Dst] = op.Imm
						case jit.KAddSS:
							fr[op.Dst] = fr[op.A] + fr[op.B]
						case jit.KAddSI:
							fr[op.Dst] = fr[op.A] + op.Imm
						case jit.KMulAddSII:
							fr[op.Dst] = fr[op.A]*op.Imm + op.Imm2
						default:
							runOps(nil, fr, ch.Ops)
						}
					} else if len(ch.Ops) > 0 {
						runOps(nil, fr, ch.Ops)
					}
				} else {
					// A quantum boundary falls inside the chunk: step the
					// original bytecode per instruction so the yield lands
					// on the interpreter's exact boundary. The frame is
					// canonical at chunk entry, and per-instruction
					// execution leaves it canonical again.
					v.tierFallbacks++
					var err error
					done, budget, err = t.stepPureRange(m, fr, int(ch.Start), n, int(ch.SP), done, budget, cost, quantum)
					if err != nil {
						return 0, err
					}
				}
				continue
			}

			// Effect: one instruction, charged singly in the
			// interpreter's order — count, yield check, execute. The
			// yield records the effect's entry stack depth (the frame is
			// canonical at chunk boundaries), matching the depth the
			// interpreter's pre-instruction yield records.
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
					if th, ok := AsThrown(err); ok {
						thrown = th
					} else {
						t.flushInterp(done, cost, budget)
						return 0, err
					}
				} else {
					fr[base-1] = h
				}
			case jit.EffGetStatic:
				p := m.refStatics[eff.Ref]
				if p == nil {
					resolved, err := v.resolveStatic(m.Def.Refs[eff.Ref])
					if err != nil {
						t.flushInterp(done, cost, budget)
						return 0, fmt.Errorf("vm: %s at %d: %w", m.FullName(), m.instrs[idx].Offset, err)
					}
					p = resolved
				}
				fr[base] = *p
			case jit.EffPutStatic:
				p := m.refStatics[eff.Ref]
				if p == nil {
					resolved, err := v.resolveStatic(m.Def.Refs[eff.Ref])
					if err != nil {
						t.flushInterp(done, cost, budget)
						return 0, fmt.Errorf("vm: %s at %d: %w", m.FullName(), m.instrs[idx].Offset, err)
					}
					p = resolved
				}
				*p = fr[base-1]
			case jit.EffInvoke:
				// The charge for the invoke instruction itself lands
				// before the call, exactly as the interpreter orders it.
				t.flushInterp(done, cost, budget)
				done = 0
				callee := m.refMethods[eff.Ref]
				if callee == nil {
					resolved, err := v.resolveMethod(m.Def.Refs[eff.Ref])
					if err != nil {
						return 0, fmt.Errorf("vm: %s at %d: %w", m.FullName(), m.instrs[idx].Offset, err)
					}
					callee = resolved
				}
				argBase := base - callee.argWords
				t.setFrameSP(int(eff.SP) - callee.argWords)
				var r int64
				var err error
				// Inline fast path: the lowering attached a compiled plan
				// for this site's resolved callee. The Key re-check is the
				// transitive half of relink invalidation — any resolution
				// drift sends the call out of line — and an installed
				// tracer or a de-optimized VM must take the generic invoke
				// for its entry/exit events.
				if si := eff.Inline; si >= 0 && v.tracer == nil && !v.jitDisabled &&
					u.Inlines[si].Key == any(callee) {
					site := &u.Inlines[si]
					m.inlinedCalls++
					r, err = t.invokeInline(callee, site,
						fr[u.NumSlots:u.NumSlots+int(site.Slots)], fr[argBase:base])
				} else {
					r, err = t.invoke(callee, fr[argBase:base])
				}
				budget = t.budget // the callee shares the yield budget
				sp := int(eff.SP) - callee.argWords
				if err != nil {
					if th, ok := AsThrown(err); ok {
						thrown = th
					} else {
						return 0, err
					}
				} else if callee.returns {
					fr[ml+sp] = r
					sp++
				}
				// Mid-frame deoptimization: the callee may have installed
				// a tracer, enabled method events, or loaded a class
				// (stale relink epoch). Hand the rest of the activation
				// to the instrumented interpreter at this exact boundary.
				if v.tracer != nil || v.jitDisabled || v.tier.Epoch() != startEpoch {
					v.tierDeopts++
					if thrown != nil {
						h := m.handlerIdx[idx]
						if h < 0 {
							t.flushInterp(done, cost, budget)
							return 0, thrown
						}
						stack[0] = thrown.Value
						return t.interpretInstrumentedFrom(m, locals, stack, int(h), 1, cost)
					}
					t.flushInterp(done, cost, budget)
					return t.interpretInstrumentedFrom(m, locals, stack, idx+1, sp, cost)
				}
			}
			if thrown != nil {
				nb, r, err := t.throwAt(m, u, locals, stack, idx, thrown, done, budget, cost)
				if nb < 0 {
					return r, err
				}
				bi = nb
				continue blocks
			}
		}

		// Terminator.
		tm := &b.Term
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
		switch tm.Kind {
		case jit.TermFall:
			if tm.Next < 0 {
				t.flushInterp(done, cost, budget)
				return 0, fmt.Errorf("vm: %s: fell off end of code", m.FullName())
			}
			bi = tm.Next
		case jit.TermGoto:
			bi = tm.Target
		case jit.TermBr1:
			a := tm.ImmA
			if !tm.AImm {
				a = fr[tm.A]
			}
			if cond1(bytecode.Op(tm.Cond), a) {
				bi = tm.Target
			} else {
				if tm.Next < 0 {
					t.flushInterp(done, cost, budget)
					return 0, fmt.Errorf("vm: %s: fell off end of code", m.FullName())
				}
				bi = tm.Next
			}
		case jit.TermBr2:
			a, bb2 := tm.ImmA, tm.ImmB
			if !tm.AImm {
				a = fr[tm.A]
			}
			if !tm.BImm {
				bb2 = fr[tm.B]
			}
			if cond2(bytecode.Op(tm.Cond), a, bb2) {
				bi = tm.Target
			} else {
				if tm.Next < 0 {
					t.flushInterp(done, cost, budget)
					return 0, fmt.Errorf("vm: %s: fell off end of code", m.FullName())
				}
				bi = tm.Next
			}
		case jit.TermReturn:
			t.flushInterp(done, cost, budget)
			return 0, nil
		case jit.TermIreturn:
			val := tm.ImmA
			if !tm.AImm {
				val = fr[tm.A]
			}
			t.flushInterp(done, cost, budget)
			return val, nil
		case jit.TermThrow:
			val := tm.ImmA
			if !tm.AImm {
				val = fr[tm.A]
			}
			nb, r, err := t.throwAt(m, u, locals, stack, int(tm.Idx), Throw(val, ""), done, budget, cost)
			if nb < 0 {
				return r, err
			}
			bi = nb
		}
	}

	// A batch trapped at op trapK of block trapB. The batch charged the
	// whole block up front; the interpreter would have charged only up
	// to and including the trapping instruction, so the instructions
	// after it are un-charged. The strict budget guard that admitted the
	// batch rules out a yield inside it, so this arithmetic is exact.
	op := &trapB.Flat[trapK]
	idx := int(op.Imm)
	rest := int(trapB.Start+trapB.NInstr) - idx - 1
	done -= uint64(rest)
	budget += rest
	nb, r, err := t.throwAt(m, u, locals, stack, idx, trapThrown(heap, fr, op), done, budget, cost)
	if nb < 0 {
		return r, err
	}
	bi = nb
	goto blocks
}

// invokeInline runs an inline-expanded call: the callee's private unit
// executes in the caller's scratch frame area instead of re-entering the
// generic invoke path. Every simulated observable is produced exactly as
// t.invoke would — the depth check, the invocation count and JIT-model
// promotion, the CostInvoke charge on the caller's side, the callee's
// frame-entry cost selection and root-scan registration. What it skips is
// host-side only: the argument-count and abstract checks (guaranteed by
// the compile-time resolution the Key guard re-validated) and the tracer
// and method-event callbacks (the call site's guards route those runs out
// of line).
func (t *Thread) invokeInline(callee *Method, site *jit.InlineSite, scr, args []int64) (int64, error) {
	if t.depth >= t.vm.opts.MaxFrames {
		return 0, Throw(int64(t.depth), "StackOverflowError")
	}
	t.depth++
	if t.depth == reserveDepth && !t.stackReserved {
		t.stackReserved = true
		reserveStack(64)
	}
	t.vm.maybeCompile(callee)
	if t.nativeDepth > 0 {
		t.chargeNative(t.vm.opts.CostInvoke)
	} else {
		t.chargeInterp(t.vm.opts.CostInvoke)
	}

	nl := int(site.NL)
	locals := scr[:nl:nl]
	stack := scr[nl:]
	n := copy(locals, args)
	clear(locals[n:])

	cost := t.vm.opts.CostInterp
	if callee.compiled {
		cost = t.vm.opts.CostCompiled
	}

	// Counted-kernel fast path: the callee's whole activation resolved at
	// compile time. Pure ops only and the budget covers the total, so the
	// root-scan registration is skipped along with all block dispatch.
	if p := site.U.Static; p != nil {
		if budget := t.budget; int64(budget) > p.Total {
			ret := t.runStatic(p, scr, cost, budget)
			t.depth--
			return ret, nil
		}
	}

	// Leaf fast path: a single batchable block ending in a return runs as
	// one fused step when the yield budget covers it — the exact charge and
	// strict-budget guard of the general batch path, collapsed. With no
	// effects, no throws and no yield possible before the return, nothing
	// can observe the activation mid-body, so the root-scan registration is
	// skipped along with the block dispatch.
	if u := site.U; u.Leaf {
		b := &u.Blocks[0]
		bn := int(b.NInstr)
		if budget := t.budget; budget > bn {
			if len(b.Flat) > 0 {
				runOps(nil, scr, b.Flat)
			}
			var ret int64
			if b.Term.Kind == jit.TermIreturn {
				ret = b.Term.ImmA
				if !b.Term.AImm {
					ret = scr[b.Term.A]
				}
			}
			t.flushInterp(uint64(bn), cost, budget-bn)
			t.vm.tierFrames++
			t.depth--
			return ret, nil
		}
	}

	t.pushFrameRef(scr, nl)
	ret, err := t.runCompiledFrom(callee, site.U, scr, locals, stack, 0, cost)
	t.popFrameRef()
	t.depth--
	return ret, err
}

// enterOSR performs on-stack replacement: a fast-loop activation that
// crossed the OSR threshold moves into compiled code at a loop header,
// mid-iteration. The interpreter frame's locals and live operand stack
// are copied into a fresh compiled-size frame (the interpreter sized its
// own without inline scratch), the thread's root-scan record for the
// frame is swapped to the new storage, and execution resumes in the unit
// at the branch target's block with the frame-entry cost the interpreted
// activation captured. The abandoned interpreter frame stays in the
// arena until interpret pops its own base, which frees both at once.
func (t *Thread) enterOSR(m *Method, u *jit.Unit, locals, stack []int64, bi int32, sp int, cost uint64) (int64, error) {
	m.osrEntries++
	nl := len(locals)
	fr, _ := t.pushFrameRaw(u.NumSlots + u.ScratchSlots)
	copy(fr[:nl], locals)
	copy(fr[nl:nl+sp], stack[:sp])
	t.frames[len(t.frames)-1] = frameRef{fr: fr, nl: int32(nl), sp: int32(sp)}
	return t.runCompiledFrom(m, u, fr, fr[:nl:nl], fr[nl:], bi, cost)
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

// throwAt dispatches thrown, raised by instruction idx of a compiled
// activation: to the covering handler's block (nb >= 0, the caller
// continues there with its accounting), to the instrumented interpreter
// when the handler is not a block leader, or out of the activation when
// no handler covers idx. For nb < 0 the activation is over, accounting
// flushed, and ret, err are its outcome.
func (t *Thread) throwAt(m *Method, u *jit.Unit, locals, stack []int64, idx int, thrown *Thrown,
	done uint64, budget int, cost uint64) (nb int32, ret int64, err error) {
	h := m.handlerIdx[idx]
	if h < 0 {
		t.flushInterp(done, cost, budget)
		return -1, 0, thrown
	}
	stack[0] = thrown.Value
	if nb = u.BlockOf[h]; nb >= 0 {
		return nb, 0, nil
	}
	// Handlers are always block leaders; deopt defensively rather than
	// trust a violated invariant.
	t.vm.tierDeopts++
	t.flushInterp(done, cost, budget)
	ret, err = t.interpretInstrumentedFrom(m, locals, stack, int(h), 1, cost)
	return -1, ret, err
}

// stepPureRange executes n straight-line bytecode instructions beginning
// at instruction index start with per-instruction accounting — the
// compiled tier's yield-boundary fallback. sp is the operand-stack depth
// at entry. It returns the updated deferred-accounting state.
//
// The opcode switch is deliberately another copy of the straight-line
// subset realized in interpretFast's per-instruction path (including the
// OpInc slot|delta<<16 operand packing from linkDispatch): sharing one
// helper would add a call into the interpreter's hottest loop and
// perturb its code generation. Any change to the straight-line opcode
// set or encoding must touch both copies; TestJITYieldBoundariesMatchInterp
// runs with a hostile 7-instruction quantum precisely so this fallback
// executes constantly and any divergence between the copies fails loudly.
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
			t.flushInterp(done, cost, budget)
			return done, budget, fmt.Errorf("vm: %s: non-straight-line opcode %s in compiled chunk at %d",
				m.FullName(), ops[idx], m.instrs[idx].Offset)
		}
	}
	return done, budget, nil
}

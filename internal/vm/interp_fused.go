package vm

import "repro/internal/bytecode"

// Direct-threaded dispatch for the fast interpreter loop.
//
// linkDispatch already batches the *accounting* of straight-line runs;
// this file batches the *decoding*. At link time every straight-line
// instruction is pre-decoded into a fusedIn entry — operands resolved,
// constants folded in — and adjacent instructions whose combination has a
// fused form are paired into one superinstruction, chosen by a dynamic
// program that minimizes dispatches over each run suffix. The fused array
// is positional (entry i covers the instruction at index i and carries
// its own width), so the batch executor can enter a run at any index —
// branch targets land mid-run all the time — and still walk the optimal
// pairing for that suffix.
//
// Semantics are exactly the sequential instructions'. The only state
// difference fusion introduces is elided dead operand-stack writes (a
// Store's popped slot, a Load consumed by the next Store): those slots
// sit above the pair's final stack depth, which the canonical-prefix
// contract (see frameRef) already declares unobservable — the compiled
// tier has elided such writes since it existed, and the differential
// tests cross-check all engines instruction by instruction.

// fusedIn is one pre-decoded dispatch entry: a single instruction or a
// fused pair. w is the instruction count covered (1 or 2); a, b are
// local-slot operands and imm an immediate, per-code.
type fusedIn struct {
	code uint8
	w    uint8
	a, b int32
	imm  int64
}

// Fused codes. fBad is deliberately the zero value so an entry that was
// never filled (a non-straight-line position) fails loudly in dispatch
// instead of silently executing a Nop.
const (
	fBad uint8 = iota
	// Singles: the straight-line instruction set, pre-decoded.
	fNop
	fConst // push imm (Const/Iconst0/Iconst1 folded)
	fLoad  // push locals[a]
	fStore // locals[a] = pop
	fInc   // locals[a] += imm
	fAdd
	fSub
	fMul
	fNeg
	fShl
	fShr
	fAnd
	fOr
	fXor
	fDup
	fPop
	fSwap
	// Pairs: producer/consumer combinations.
	fLoadConst  // push locals[a]; push imm
	fLoadLoad   // push locals[a]; push locals[b]
	fLoadStore  // locals[b] = locals[a]
	fStoreLoad  // locals[a] = pop; push locals[b]
	fConstStore // locals[a] = imm
	fStoreInc   // locals[a] = pop; locals[b] += imm
	fIncLoad    // locals[a] += imm; push locals[b]
	// Const + binop: top op= imm.
	fAddImm
	fSubImm
	fMulImm
	fAndImm
	fOrImm
	fXorImm
	fShlImm
	fShrImm
	// Load + binop: top op= locals[a].
	fAddLoc
	fSubLoc
	fMulLoc
	fAndLoc
	fOrLoc
	fXorLoc
	fShlLoc
	fShrLoc
	// Binop + Store: locals[a] = next op top; pops both.
	fAddStore
	fSubStore
	fMulStore
	fAndStore
	fOrStore
	fXorStore
	fShlStore
	fShrStore
	// Binop + Const: fold the binop, then push imm.
	fAddConst
	fSubConst
	fMulConst
	fAndConst
	fOrConst
	fXorConst
)

// singleCode maps a straight-line opcode to its plain fused code (ops
// with operands are handled in singleFused).
var singleCode = map[bytecode.Op]uint8{
	bytecode.OpNop: fNop, bytecode.OpAdd: fAdd, bytecode.OpSub: fSub,
	bytecode.OpMul: fMul, bytecode.OpNeg: fNeg, bytecode.OpShl: fShl,
	bytecode.OpShr: fShr, bytecode.OpAnd: fAnd, bytecode.OpOr: fOr,
	bytecode.OpXor: fXor, bytecode.OpDup: fDup, bytecode.OpPop: fPop,
	bytecode.OpSwap: fSwap,
}

// binStoreCode maps a binop to its fused binop+Store pair code.
var binStoreCode = map[bytecode.Op]uint8{
	bytecode.OpAdd: fAddStore, bytecode.OpSub: fSubStore,
	bytecode.OpMul: fMulStore, bytecode.OpAnd: fAndStore,
	bytecode.OpOr: fOrStore, bytecode.OpXor: fXorStore,
	bytecode.OpShl: fShlStore, bytecode.OpShr: fShrStore,
}

// binConstCode maps a binop to its fused binop+Const pair code (shifts
// excluded: a shift followed by a constant push is too rare to carry).
var binConstCode = map[bytecode.Op]uint8{
	bytecode.OpAdd: fAddConst, bytecode.OpSub: fSubConst,
	bytecode.OpMul: fMulConst, bytecode.OpAnd: fAndConst,
	bytecode.OpOr: fOrConst, bytecode.OpXor: fXorConst,
}

// constBinCode maps a binop to its fused Const+binop pair code.
var constBinCode = map[bytecode.Op]uint8{
	bytecode.OpAdd: fAddImm, bytecode.OpSub: fSubImm,
	bytecode.OpMul: fMulImm, bytecode.OpAnd: fAndImm,
	bytecode.OpOr: fOrImm, bytecode.OpXor: fXorImm,
	bytecode.OpShl: fShlImm, bytecode.OpShr: fShrImm,
}

// loadBinCode maps a binop to its fused Load+binop pair code.
var loadBinCode = map[bytecode.Op]uint8{
	bytecode.OpAdd: fAddLoc, bytecode.OpSub: fSubLoc,
	bytecode.OpMul: fMulLoc, bytecode.OpAnd: fAndLoc,
	bytecode.OpOr: fOrLoc, bytecode.OpXor: fXorLoc,
	bytecode.OpShl: fShlLoc, bytecode.OpShr: fShrLoc,
}

// constImm returns the pushed constant when instruction i is a constant
// push of any form.
func (m *Method) constImm(i int) (int64, bool) {
	switch m.ops[i] {
	case bytecode.OpConst:
		return m.Def.Consts[m.operands[i]], true
	case bytecode.OpIconst0:
		return 0, true
	case bytecode.OpIconst1:
		return 1, true
	}
	return 0, false
}

// singleFused pre-decodes instruction i into its one-wide entry.
func (m *Method) singleFused(i int) fusedIn {
	op := m.ops[i]
	if imm, ok := m.constImm(i); ok {
		return fusedIn{code: fConst, w: 1, imm: imm}
	}
	switch op {
	case bytecode.OpLoad:
		return fusedIn{code: fLoad, w: 1, a: m.operands[i]}
	case bytecode.OpStore:
		return fusedIn{code: fStore, w: 1, a: m.operands[i]}
	case bytecode.OpInc:
		v := m.operands[i]
		return fusedIn{code: fInc, w: 1, a: v & 0xffff, imm: int64(v >> 16)}
	}
	if c, ok := singleCode[op]; ok {
		return fusedIn{code: c, w: 1}
	}
	return fusedIn{} // fBad: not straight-line code
}

// pairFused builds the superinstruction covering instructions i and i+1
// when their combination has a fused form.
func (m *Method) pairFused(i int) (fusedIn, bool) {
	op1, op2 := m.ops[i], m.ops[i+1]
	if imm, ok := m.constImm(i); ok {
		if op2 == bytecode.OpStore {
			return fusedIn{code: fConstStore, w: 2, a: m.operands[i+1], imm: imm}, true
		}
		if c, ok := constBinCode[op2]; ok {
			return fusedIn{code: c, w: 2, imm: imm}, true
		}
		return fusedIn{}, false
	}
	switch op1 {
	case bytecode.OpLoad:
		a := m.operands[i]
		if imm, ok := m.constImm(i + 1); ok {
			return fusedIn{code: fLoadConst, w: 2, a: a, imm: imm}, true
		}
		switch op2 {
		case bytecode.OpLoad:
			return fusedIn{code: fLoadLoad, w: 2, a: a, b: m.operands[i+1]}, true
		case bytecode.OpStore:
			return fusedIn{code: fLoadStore, w: 2, a: a, b: m.operands[i+1]}, true
		}
		if c, ok := loadBinCode[op2]; ok {
			return fusedIn{code: c, w: 2, a: a}, true
		}
	case bytecode.OpStore:
		a := m.operands[i]
		switch op2 {
		case bytecode.OpLoad:
			return fusedIn{code: fStoreLoad, w: 2, a: a, b: m.operands[i+1]}, true
		case bytecode.OpInc:
			v := m.operands[i+1]
			return fusedIn{code: fStoreInc, w: 2, a: a, b: v & 0xffff, imm: int64(v >> 16)}, true
		}
	case bytecode.OpInc:
		if op2 == bytecode.OpLoad {
			v := m.operands[i]
			return fusedIn{code: fIncLoad, w: 2, a: v & 0xffff, b: m.operands[i+1], imm: int64(v >> 16)}, true
		}
	default:
		if op2 == bytecode.OpStore {
			if c, ok := binStoreCode[op1]; ok {
				return fusedIn{code: c, w: 2, a: m.operands[i+1]}, true
			}
		}
		if imm, ok := m.constImm(i + 1); ok {
			if c, ok := binConstCode[op1]; ok {
				return fusedIn{code: c, w: 2, imm: imm}, true
			}
		}
	}
	return fusedIn{}, false
}

// linkFused builds the method's direct-threaded code: one fusedIn per
// straight-line instruction index, paired by a right-to-left dynamic
// program that minimizes dispatch count for every run suffix (dp[i] is
// the dispatches needed from i to the run's end; a pair is taken when it
// does not lose to stepping singly). Because every suffix gets its own
// optimal entry, a batch entering mid-run — after a branch into the run —
// needs no re-alignment. pairsFrom[i] counts the pairs executed from i,
// the batch dispatch's one-add contribution to the tier-2 stats.
func (m *Method) linkFused() {
	n := len(m.instrs)
	if n == 0 {
		return
	}
	m.fused = make([]fusedIn, n)
	m.pairsFrom = make([]int32, n)
	dp := make([]int32, n)
	for i := n - 1; i >= 0; i-- {
		r := int(m.runLen[i])
		if r == 0 {
			continue
		}
		m.straightInstrs++
		var dp1 int32
		if r > 1 {
			dp1 = dp[i+1]
		}
		if r >= 2 {
			if pf, ok := m.pairFused(i); ok {
				var dp2 int32
				if r > 2 {
					dp2 = dp[i+2]
				}
				if dp2 <= dp1 {
					m.fused[i] = pf
					dp[i] = 1 + dp2
					m.pairsFrom[i] = 1
					if r > 2 {
						m.pairsFrom[i] += m.pairsFrom[i+2]
					}
					continue
				}
			}
		}
		m.fused[i] = m.singleFused(i)
		dp[i] = 1 + dp1
		if r > 1 {
			m.pairsFrom[i] = m.pairsFrom[i+1]
		}
	}
	// Static fusion coverage over maximal runs, for the tier-stats view.
	for i := 0; i < n; i++ {
		if m.runLen[i] > 0 && (i == 0 || m.runLen[i-1] == 0) {
			m.fusedPairs += int(m.pairsFrom[i])
		}
	}
}

// runFused executes the fused code covering instruction indexes
// [idx, end) and returns the resulting operand-stack depth. ok is false
// when dispatch hit an unfilled entry — non-straight-line code inside a
// run, which linkFused makes impossible and dispatch still refuses to
// execute. Accounting is the caller's: the fast loop charges the whole
// run before entering.
func runFused(fused []fusedIn, locals, stack []int64, idx, end, sp int) (int, bool) {
	for idx < end {
		f := &fused[idx]
		switch f.code {
		case fNop:
		case fConst:
			stack[sp] = f.imm
			sp++
		case fLoad:
			stack[sp] = locals[f.a]
			sp++
		case fStore:
			sp--
			locals[f.a] = stack[sp]
		case fInc:
			locals[f.a] += f.imm
		case fAdd:
			stack[sp-2] += stack[sp-1]
			sp--
		case fSub:
			stack[sp-2] -= stack[sp-1]
			sp--
		case fMul:
			stack[sp-2] *= stack[sp-1]
			sp--
		case fNeg:
			stack[sp-1] = -stack[sp-1]
		case fShl:
			stack[sp-2] <<= uint64(stack[sp-1]) & 63
			sp--
		case fShr:
			stack[sp-2] >>= uint64(stack[sp-1]) & 63
			sp--
		case fAnd:
			stack[sp-2] &= stack[sp-1]
			sp--
		case fOr:
			stack[sp-2] |= stack[sp-1]
			sp--
		case fXor:
			stack[sp-2] ^= stack[sp-1]
			sp--
		case fDup:
			stack[sp] = stack[sp-1]
			sp++
		case fPop:
			sp--
		case fSwap:
			stack[sp-1], stack[sp-2] = stack[sp-2], stack[sp-1]
		case fLoadConst:
			stack[sp] = locals[f.a]
			stack[sp+1] = f.imm
			sp += 2
		case fLoadLoad:
			stack[sp] = locals[f.a]
			stack[sp+1] = locals[f.b]
			sp += 2
		case fLoadStore:
			locals[f.b] = locals[f.a]
		case fStoreLoad:
			locals[f.a] = stack[sp-1]
			stack[sp-1] = locals[f.b]
		case fConstStore:
			locals[f.a] = f.imm
		case fStoreInc:
			sp--
			locals[f.a] = stack[sp]
			locals[f.b] += f.imm
		case fIncLoad:
			locals[f.a] += f.imm
			stack[sp] = locals[f.b]
			sp++
		case fAddImm:
			stack[sp-1] += f.imm
		case fSubImm:
			stack[sp-1] -= f.imm
		case fMulImm:
			stack[sp-1] *= f.imm
		case fAndImm:
			stack[sp-1] &= f.imm
		case fOrImm:
			stack[sp-1] |= f.imm
		case fXorImm:
			stack[sp-1] ^= f.imm
		case fShlImm:
			stack[sp-1] <<= uint64(f.imm) & 63
		case fShrImm:
			stack[sp-1] >>= uint64(f.imm) & 63
		case fAddLoc:
			stack[sp-1] += locals[f.a]
		case fSubLoc:
			stack[sp-1] -= locals[f.a]
		case fMulLoc:
			stack[sp-1] *= locals[f.a]
		case fAndLoc:
			stack[sp-1] &= locals[f.a]
		case fOrLoc:
			stack[sp-1] |= locals[f.a]
		case fXorLoc:
			stack[sp-1] ^= locals[f.a]
		case fShlLoc:
			stack[sp-1] <<= uint64(locals[f.a]) & 63
		case fShrLoc:
			stack[sp-1] >>= uint64(locals[f.a]) & 63
		case fAddStore:
			locals[f.a] = stack[sp-2] + stack[sp-1]
			sp -= 2
		case fSubStore:
			locals[f.a] = stack[sp-2] - stack[sp-1]
			sp -= 2
		case fMulStore:
			locals[f.a] = stack[sp-2] * stack[sp-1]
			sp -= 2
		case fAndStore:
			locals[f.a] = stack[sp-2] & stack[sp-1]
			sp -= 2
		case fOrStore:
			locals[f.a] = stack[sp-2] | stack[sp-1]
			sp -= 2
		case fXorStore:
			locals[f.a] = stack[sp-2] ^ stack[sp-1]
			sp -= 2
		case fShlStore:
			locals[f.a] = stack[sp-2] << (uint64(stack[sp-1]) & 63)
			sp -= 2
		case fShrStore:
			locals[f.a] = stack[sp-2] >> (uint64(stack[sp-1]) & 63)
			sp -= 2
		case fAddConst:
			stack[sp-2] += stack[sp-1]
			stack[sp-1] = f.imm
		case fSubConst:
			stack[sp-2] -= stack[sp-1]
			stack[sp-1] = f.imm
		case fMulConst:
			stack[sp-2] *= stack[sp-1]
			stack[sp-1] = f.imm
		case fAndConst:
			stack[sp-2] &= stack[sp-1]
			stack[sp-1] = f.imm
		case fOrConst:
			stack[sp-2] |= stack[sp-1]
			stack[sp-1] = f.imm
		case fXorConst:
			stack[sp-2] ^= stack[sp-1]
			stack[sp-1] = f.imm
		default:
			return sp, false
		}
		idx += int(f.w)
	}
	return sp, true
}

package jit

import (
	"fmt"

	"repro/internal/bytecode"
	"repro/internal/classfile"
)

// Lower lowers a verified bytecode method, decoded into ins, into a
// Unit: one chunked three-address sequence per reachable basic block.
//
// The lowering walks each block with a symbolic operand stack. Every
// stack cell is a descriptor — an immediate, a local slot, or the cell's
// canonical home slot — and pure instructions (loads, constants,
// arithmetic, stack shuffling) defer their work into descriptors until a
// consumer forces an op, so `load; const; mul; const; add; store` fuses
// to a single three-address op. Descriptors never dangle: a write to a
// local spills every descriptor that reads it first, and values are
// materialized into their canonical homes at every effect boundary,
// branch, and block end, which keeps the frame bit-identical to the
// interpreter's at every chunk boundary (the executors' fallback and
// deoptimization contract). A batchable block's Flat is then tidied
// (see tidy): it runs only as a whole batch, so it keeps canonical only
// the slots live at the block's exit.
//
// The lowering reads nothing but the method itself, so it is
// link-independent: the VM lowers each method once at load time and runs
// it in every frame, interpreted or promoted, that needs no
// per-instruction observer.
//
// Methods the lowering cannot express are an error; the VM leaves such
// methods on per-instruction interpretation, so Lower failing is a
// performance event, never a correctness one.
func Lower(def *classfile.Method, ins []bytecode.Instruction) (*Unit, error) {
	if len(ins) == 0 {
		return nil, fmt.Errorf("jit: %s: empty code", def.Key())
	}
	bbs, err := bytecode.BasicBlocks(def, ins)
	if err != nil {
		return nil, fmt.Errorf("jit: %s: %w", def.Key(), err)
	}
	if len(bbs) == 0 {
		return nil, fmt.Errorf("jit: %s: no reachable blocks", def.Key())
	}
	blockOf := make([]int32, len(ins))
	for i := range blockOf {
		blockOf[i] = -1
	}
	for bi, bb := range bbs {
		blockOf[bb.Start] = int32(bi)
	}
	u := &Unit{
		BlockOf:   blockOf,
		MaxLocals: int(def.MaxLocals),
		NumSlots:  int(def.MaxLocals) + int(def.MaxStack),
		Blocks:    make([]Block, len(bbs)),
	}
	for bi, bb := range bbs {
		lb, err := lowerBlock(def, ins, bb, blockOf, int32(def.MaxLocals))
		if err != nil {
			return nil, fmt.Errorf("jit: %s: block @%d: %w", def.Key(), bb.Offset, err)
		}
		// Accounting invariant: the chunks plus the terminator must cover
		// every instruction of the span exactly once.
		var n int32
		for _, ch := range lb.Chunks {
			// A chunk the budget cannot cover is re-executed from its
			// bytecode, so ops must never sit outside every
			// instruction's range.
			if ch.N == 0 {
				return nil, fmt.Errorf("jit: %s: block @%d has ops covering no instruction",
					def.Key(), bb.Offset)
			}
			n += ch.N
		}
		n += lb.Term.N
		if want := int32(bb.End - bb.Start); n != want {
			return nil, fmt.Errorf("jit: %s: block @%d covers %d of %d instructions",
				def.Key(), bb.Offset, n, want)
		}
		lb.NInstr = n
		lb.CanBatch = true
		for _, ch := range lb.Chunks {
			if ch.Pure {
				lb.OpFree += ch.N - int32(len(ch.Ops))
			} else {
				lb.CanBatch = lb.CanBatch && ch.Eff.Kind == EffTrap
				lb.Traps = true
			}
		}
		lb.Traps = lb.Traps && lb.CanBatch
		if lb.CanBatch {
			for _, ch := range lb.Chunks {
				lb.Flat = append(lb.Flat, ch.Ops...)
			}
			lb.Flat = tidy(lb.Flat, int32(def.MaxLocals), lb.Term.SP)
		}
		u.Blocks[bi] = lb
		u.NumInstrs += int(n)
	}
	// Handler dispatch enters a handler through BlockOf, so every handler
	// must lead a lowered block.
	for _, h := range def.Handlers {
		if hi, ok := bytecode.IndexAt(ins, int(h.HandlerPC)); !ok || blockOf[hi] < 0 {
			return nil, fmt.Errorf("jit: %s: handler %d is not a block leader", def.Key(), h.HandlerPC)
		}
	}
	// Loop fusion: mark headers of the canonical while-shape (batchable
	// conditional header, fallthrough to a batchable body that jumps
	// straight back) so the executor can iterate the pair without
	// per-iteration block dispatch.
	for bi := range u.Blocks {
		h := &u.Blocks[bi]
		h.LoopBody = -1
		if !h.CanBatch || (h.Term.Kind != TermBr1 && h.Term.Kind != TermBr2) {
			continue
		}
		nb := h.Term.Next
		if nb < 0 || nb == int32(bi) {
			continue
		}
		body := &u.Blocks[nb]
		if body.CanBatch && body.Term.Kind == TermGoto && body.Term.Target == int32(bi) {
			h.LoopBody = nb
		}
	}
	u.Static = staticPlan(u)
	return u, nil
}

// writesSlot reports whether op writes frame slot s (KSwap writes both
// of its operands, KAStore none: its Dst is read).
func writesSlot(op *Op, s int32) bool {
	switch op.Kind {
	case KSwap:
		return op.A == s || op.B == s
	case KAStore:
		return false
	}
	return op.Dst == s
}

// slotReads is the number of slot operands op reads from A and B, in
// that order: KAStore also reads Dst, and KSwap reads (and writes) both.
func slotReads(k Kind) int {
	switch k {
	case KMovI:
		return 0
	case KMov, KNeg, KAddSI, KSubSI, KSubIS, KMulSI, KMulAddSII, KAndSI,
		KOrSI, KXorSI, KShlSI, KShlIS, KShrSI, KShrIS, KArrayLen:
		return 1
	}
	return 2
}

// trapping reports whether k is one of the trapping kinds, which the Kind
// list declares after every pure kind.
func trapping(k Kind) bool { return k >= KDivSS }

// tidy rewrites a batchable block's concatenated op stream (ml is the
// frame's MaxLocals, exitSP the block's Term.SP) for the batch path, in
// place. The stream runs whole or stops at a trapping op whose handler
// sees only the locals and a fresh stack, so canonical stack homes matter
// only at the block's exit, below exitSP. Two passes:
//
//   - copy propagation: a KMov into a home is forwarded into the ops that
//     read that home while neither the home nor the move's source is
//     rewritten, so they read the source directly;
//   - dead-write removal: a non-trapping op writing a home that nothing
//     later in the block reads, and that is dead at the exit, is dropped.
//
// Trapping ops and their order are kept and KSwap is left as it is; the
// chunks' own Ops stay canonical for the per-chunk path, which anchors
// the per-instruction fallback and deopt at every chunk boundary.
func tidy(ops []Op, ml, exitSP int32) []Op {
	for i := range ops {
		mv := &ops[i]
		if mv.Kind != KMov || mv.Dst < ml || mv.A == mv.Dst {
			continue
		}
		h, src := mv.Dst, mv.A
		for j := i + 1; j < len(ops); j++ {
			op := &ops[j]
			if op.Kind == KSwap {
				if op.A == h || op.B == h || op.A == src || op.B == src {
					break
				}
				continue
			}
			switch slotReads(op.Kind) {
			case 2:
				if op.B == h {
					op.B = src
				}
				fallthrough
			case 1:
				if op.A == h {
					op.A = src
				}
			}
			if op.Kind == KAStore && op.Dst == h {
				op.Dst = src
			}
			if writesSlot(op, h) || writesSlot(op, src) {
				break
			}
		}
	}

	// Liveness of homes [0, 64) as a bit set, walking backwards from the
	// exit; locals and deeper homes always count as live.
	live := ^uint64(0)
	if exitSP < 64 {
		live = 1<<uint(exitSP) - 1
	}
	bit := func(s int32) uint64 {
		if p := s - ml; p >= 0 && p < 64 {
			return 1 << uint(p)
		}
		return 0
	}
	k := len(ops)
	for i := len(ops) - 1; i >= 0; i-- {
		op := ops[i]
		switch {
		case op.Kind == KSwap:
			live |= bit(op.A) | bit(op.B)
		case op.Kind == KAStore:
			live |= bit(op.A) | bit(op.B) | bit(op.Dst)
		case op.Kind == KMov && op.A == op.Dst:
			continue // forwarding turned it into a self-move
		default:
			if b := bit(op.Dst); b != 0 && live&b == 0 && !trapping(op.Kind) {
				continue // a dead home write; trapping kinds must run
			}
			live &^= bit(op.Dst)
			switch slotReads(op.Kind) {
			case 2:
				live |= bit(op.B)
				fallthrough
			case 1:
				live |= bit(op.A)
			}
		}
		k--
		ops[k] = op
	}
	n := copy(ops, ops[k:])
	return ops[:n]
}

// staticPlan recognizes the canonical counted-kernel unit — entry block
// seeding the loop counter with a constant, a bare ifle-counted loop over
// a batchable body that steps the counter by a negative constant, and a
// pure returning exit block — and resolves its trip count and total
// simulated instruction count at compile time. Any deviation returns nil
// and the unit runs block by block.
func staticPlan(u *Unit) *StaticPlan {
	if len(u.Blocks) < 3 {
		return nil
	}
	b0 := &u.Blocks[0]
	if !b0.CanBatch || b0.Traps {
		return nil
	}
	var hi int32
	switch b0.Term.Kind {
	case TermFall:
		hi = b0.Term.Next
	case TermGoto:
		hi = b0.Term.Target
	default:
		return nil
	}
	if hi <= 0 || int(hi) >= len(u.Blocks) {
		return nil
	}
	h := &u.Blocks[hi]
	if h.LoopBody < 0 || len(h.Flat) != 0 || h.Term.Kind != TermBr1 ||
		h.Term.AImm || bytecode.Op(h.Term.Cond) != bytecode.OpIfle {
		return nil
	}
	s := h.Term.A // counter slot; the taken side (counter <= 0) exits
	body := &u.Blocks[h.LoopBody]
	if body.Traps {
		return nil
	}

	// The counter must be a compile-time constant at loop entry...
	var c int64
	haveC := false
	for oi := range b0.Flat {
		op := &b0.Flat[oi]
		if !writesSlot(op, s) {
			continue
		}
		if op.Kind != KMovI {
			return nil
		}
		c, haveC = op.Imm, true
	}
	if !haveC {
		return nil
	}
	// ...and the body must step it by a negative constant exactly once.
	var step int64
	haveStep := false
	for oi := range body.Flat {
		op := &body.Flat[oi]
		if !writesSlot(op, s) {
			continue
		}
		if haveStep || op.Kind != KAddSI || op.A != s || op.Imm >= 0 {
			return nil
		}
		step, haveStep = op.Imm, true
	}
	if !haveStep {
		return nil
	}
	ei := h.Term.Target
	if ei < 0 || int(ei) >= len(u.Blocks) {
		return nil
	}
	e := &u.Blocks[ei]
	if !e.CanBatch || e.Traps || (e.Term.Kind != TermReturn && e.Term.Kind != TermIreturn) {
		return nil
	}

	var trip int64
	if c > 0 {
		trip = (c - step - 1) / -step
	}
	total := int64(b0.NInstr) + (trip+1)*int64(h.NInstr) +
		trip*int64(body.NInstr) + int64(e.NInstr)
	if total > 1<<20 {
		return nil // far past any yield budget; the general path owns it
	}
	p := &StaticPlan{
		Entry: b0.Flat, Body: body.Flat, Exit: e.Flat,
		Trip: trip, Total: total,
		OpFree: int64(b0.OpFree) + (trip+1)*int64(h.OpFree) +
			trip*int64(body.OpFree) + int64(e.OpFree),
	}
	if e.Term.Kind == TermIreturn {
		p.HasRet = true
		p.RetImm = e.Term.AImm
		p.Ret = e.Term.A
		p.RetImmVal = e.Term.ImmA
	}
	return p
}

// descriptor kinds of the symbolic operand stack.
const (
	dImm   = iota // a compile-time constant
	dLocal        // the live value of a local slot
	dHome         // materialized in the cell's canonical home slot
)

// desc is one symbolic stack cell. A dHome descriptor at stack position p
// always refers to home slot MaxLocals+p, so it carries no slot of its
// own; dLocal carries the local index, dImm the constant.
type desc struct {
	kind int
	imm  int64
	loc  int32
}

// lowerer is the per-block lowering state.
type lowerer struct {
	def     *classfile.Method
	ml      int32 // MaxLocals: home(p) = ml + p
	st      []desc
	ops     []Op
	chunks  []Chunk
	chunkLo int32 // bytecode index the open pure chunk starts at
	chunkSP int32 // operand-stack depth at the open chunk's start
	blockOf []int32
	ins     []bytecode.Instruction
}

func (lo *lowerer) home(p int) int32 { return lo.ml + int32(p) }

// flushPure closes the open pure chunk at bytecode index end (exclusive).
// A chunk is also emitted when it covers no instructions but holds ops
// (pure materialization moves with no bytecode counterpart), so that Lower
// can reject it: nothing emits such moves today, since every lazy
// descriptor stems from an instruction of the open chunk.
func (lo *lowerer) flushPure(end int32) {
	if end > lo.chunkLo || len(lo.ops) > 0 {
		lo.chunks = append(lo.chunks, Chunk{
			Pure: true, Start: lo.chunkLo, N: end - lo.chunkLo, SP: lo.chunkSP, Ops: lo.ops,
		})
		lo.ops = nil
	}
	lo.chunkLo = end
}

// emit appends one op to the open pure chunk.
func (lo *lowerer) emit(op Op) { lo.ops = append(lo.ops, op) }

// spillLocal materializes every descriptor that reads local slot x, ahead
// of a write to x.
func (lo *lowerer) spillLocal(x int32) {
	for p := range lo.st {
		if lo.st[p].kind == dLocal && lo.st[p].loc == x {
			lo.emit(Op{Kind: KMov, Dst: lo.home(p), A: x})
			lo.st[p] = desc{kind: dHome}
		}
	}
}

// materializeAll forces every stack cell into its canonical home.
func (lo *lowerer) materializeAll() {
	for p := range lo.st {
		switch lo.st[p].kind {
		case dImm:
			lo.emit(Op{Kind: KMovI, Dst: lo.home(p), Imm: lo.st[p].imm})
		case dLocal:
			lo.emit(Op{Kind: KMov, Dst: lo.home(p), A: lo.st[p].loc})
		default:
			continue
		}
		lo.st[p] = desc{kind: dHome}
	}
}

// pop removes and returns the top descriptor.
func (lo *lowerer) pop() (desc, error) {
	if len(lo.st) == 0 {
		return desc{}, fmt.Errorf("symbolic stack underflow")
	}
	d := lo.st[len(lo.st)-1]
	lo.st = lo.st[:len(lo.st)-1]
	return d, nil
}

// operand resolves a descriptor for use as an op source. p is the stack
// position the descriptor occupied (for dHome resolution).
func (lo *lowerer) operand(d desc, p int) (slot int32, imm int64, isImm bool) {
	switch d.kind {
	case dImm:
		return 0, d.imm, true
	case dLocal:
		return d.loc, 0, false
	default:
		return lo.home(p), 0, false
	}
}

// binOp lowers a two-operand arithmetic instruction. The result lands in
// the home of the result position unless a later store forwards it.
func (lo *lowerer) binOp(op bytecode.Op) error {
	b, err := lo.pop()
	if err != nil {
		return err
	}
	a, err := lo.pop()
	if err != nil {
		return err
	}
	resPos := len(lo.st)
	// Both constant: fold, matching the interpreter's exact semantics.
	if a.kind == dImm && b.kind == dImm {
		lo.st = append(lo.st, desc{kind: dImm, imm: foldBin(op, a.imm, b.imm)})
		return nil
	}
	aSlot, aImm, aIsImm := lo.operand(a, resPos)
	bSlot, bImm, bIsImm := lo.operand(b, resPos+1)
	dst := lo.home(resPos)
	out := Op{Dst: dst}
	switch {
	case !aIsImm && !bIsImm:
		out.A, out.B = aSlot, bSlot
		out.Kind = binKindSS[op]
	case !aIsImm: // slot ⊕ imm
		out.A, out.Imm = aSlot, bImm
		out.Kind = binKindSI[op]
		// Peephole: (x*imm1)+imm2 — the generated kernels' recurrence —
		// fuses with an immediately preceding multiply into one op. The
		// popped operand must still be the multiply's un-stored result
		// sitting in its home slot (a.kind == dHome): a dLocal operand
		// can alias last.Dst after store forwarding retargeted the
		// multiply into that local, and fusing then would corrupt the
		// stored local and leave the add's home slot unwritten.
		if out.Kind == KAddSI && a.kind == dHome && len(lo.ops) > 0 {
			if last := &lo.ops[len(lo.ops)-1]; last.Kind == KMulSI && last.Dst == aSlot {
				last.Kind = KMulAddSII
				last.Imm2 = bImm
				if defectMulAdd() {
					// Armed test defect (see defect.go): every executor of
					// the fused op inherits the wrong immediate, so runs
					// diverge observably from the instrumented loop.
					last.Imm2 = bImm + 1
				}
				lo.st = append(lo.st, desc{kind: dHome})
				return nil
			}
		}
	default: // imm ⊕ slot
		switch op {
		// Commutative: swap into the SI form.
		case bytecode.OpAdd, bytecode.OpMul, bytecode.OpAnd, bytecode.OpOr, bytecode.OpXor:
			out.A, out.Imm = bSlot, aImm
			out.Kind = binKindSI[op]
		case bytecode.OpSub:
			out.A, out.Imm, out.Kind = bSlot, aImm, KSubIS
		case bytecode.OpShl:
			out.A, out.Imm, out.Kind = bSlot, aImm, KShlIS
		case bytecode.OpShr:
			out.A, out.Imm, out.Kind = bSlot, aImm, KShrIS
		}
	}
	lo.emit(out)
	lo.st = append(lo.st, desc{kind: dHome})
	return nil
}

// binKindSS and binKindSI map a two-operand bytecode op to its slot/slot
// and slot/imm fused kinds.
var binKindSS = map[bytecode.Op]Kind{
	bytecode.OpAdd: KAddSS, bytecode.OpSub: KSubSS, bytecode.OpMul: KMulSS,
	bytecode.OpAnd: KAndSS, bytecode.OpOr: KOrSS, bytecode.OpXor: KXorSS,
	bytecode.OpShl: KShlSS, bytecode.OpShr: KShrSS,
}

var binKindSI = map[bytecode.Op]Kind{
	bytecode.OpAdd: KAddSI, bytecode.OpSub: KSubSI, bytecode.OpMul: KMulSI,
	bytecode.OpAnd: KAndSI, bytecode.OpOr: KOrSI, bytecode.OpXor: KXorSI,
	bytecode.OpShl: KShlSI, bytecode.OpShr: KShrSI,
}

// foldBin evaluates a two-operand pure instruction over constants with
// the interpreter's exact semantics (wrapping arithmetic, masked shifts).
func foldBin(op bytecode.Op, a, b int64) int64 {
	switch op {
	case bytecode.OpAdd:
		return a + b
	case bytecode.OpSub:
		return a - b
	case bytecode.OpMul:
		return a * b
	case bytecode.OpAnd:
		return a & b
	case bytecode.OpOr:
		return a | b
	case bytecode.OpXor:
		return a ^ b
	case bytecode.OpShl:
		return a << (uint64(b) & 63)
	case bytecode.OpShr:
		return a >> (uint64(b) & 63)
	}
	return 0
}

// effect closes the open pure chunk and appends an effect chunk for the
// instruction at index i, updating the symbolic stack by pops/pushes
// (pushed results are canonical homes).
func (lo *lowerer) effect(i int, kind EffKind, ref int32, pops, pushes int) error {
	lo.materializeAll()
	lo.flushPure(int32(i))
	if len(lo.st) < pops {
		return fmt.Errorf("symbolic stack underflow at effect")
	}
	lo.chunks = append(lo.chunks, Chunk{
		Start: int32(i), N: 1, SP: int32(len(lo.st)),
		Eff: Effect{Kind: kind, Idx: int32(i), Ref: ref, SP: int32(len(lo.st))},
	})
	lo.chunkLo = int32(i) + 1
	lo.st = lo.st[:len(lo.st)-pops]
	for k := 0; k < pushes; k++ {
		lo.st = append(lo.st, desc{kind: dHome})
	}
	lo.chunkSP = int32(len(lo.st))
	return nil
}

// trap lowers an instruction whose only side exit is a throw: an EffTrap
// effect chunk carrying the trapping op, which addresses the canonical
// homes the effect pops (from stack depth SP down) and pushes (from the
// deepest popped home up).
func (lo *lowerer) trap(i int, kind Kind, pops, pushes int) error {
	if err := lo.effect(i, EffTrap, 0, pops, pushes); err != nil {
		return err
	}
	ch := &lo.chunks[len(lo.chunks)-1]
	base := lo.ml + ch.SP - int32(pops)
	op := Op{Kind: kind, Dst: base, A: base, B: base + 1, Imm: int64(i)}
	if kind == KAStore {
		op.Dst = base + 2 // the stored value, read
	}
	ch.Ops = []Op{op}
	return nil
}

// blockIndex maps a branch-target code offset to its block index.
func (lo *lowerer) blockIndex(offset int) (int32, error) {
	i, ok := bytecode.IndexAt(lo.ins, offset)
	if !ok {
		return 0, fmt.Errorf("branch target %d misaligned", offset)
	}
	bi := lo.blockOf[i]
	if bi < 0 {
		return 0, fmt.Errorf("branch target %d is not a block leader", offset)
	}
	return bi, nil
}

// termOperand fills one terminator operand descriptor pair.
func (lo *lowerer) termOperand(d desc, p int) (slot int32, imm int64, isImm bool) {
	return lo.operand(d, p)
}

// lowerBlock lowers instructions [bb.Start, bb.End).
func lowerBlock(def *classfile.Method, ins []bytecode.Instruction, bb bytecode.BasicBlock,
	blockOf []int32, ml int32) (Block, error) {

	lo := &lowerer{
		def: def, ml: ml, blockOf: blockOf, ins: ins,
		chunkLo: int32(bb.Start),
		chunkSP: int32(bb.DepthIn),
		st:      make([]desc, bb.DepthIn),
	}
	for p := range lo.st {
		lo.st[p] = desc{kind: dHome}
	}
	out := Block{Start: int32(bb.Start)}

	fallTo := func(idx int) int32 {
		if idx >= len(ins) {
			return -1
		}
		return blockOf[idx]
	}

	for i := bb.Start; i < bb.End; i++ {
		in := ins[i]
		switch in.Op {
		case bytecode.OpNop:
			// Covered by the chunk's range; no code.
		case bytecode.OpConst:
			if in.Operand < 0 || in.Operand >= len(def.Consts) {
				return out, fmt.Errorf("const index %d out of range", in.Operand)
			}
			lo.st = append(lo.st, desc{kind: dImm, imm: def.Consts[in.Operand]})
		case bytecode.OpIconst0:
			lo.st = append(lo.st, desc{kind: dImm})
		case bytecode.OpIconst1:
			lo.st = append(lo.st, desc{kind: dImm, imm: 1})
		case bytecode.OpLoad:
			lo.st = append(lo.st, desc{kind: dLocal, loc: int32(in.Operand)})
		case bytecode.OpStore:
			d, err := lo.pop()
			if err != nil {
				return out, err
			}
			x := int32(in.Operand)
			lo.spillLocal(x)
			switch d.kind {
			case dImm:
				lo.emit(Op{Kind: KMovI, Dst: x, Imm: d.imm})
			case dLocal:
				if d.loc != x {
					lo.emit(Op{Kind: KMov, Dst: x, A: d.loc})
				}
			default:
				// Store forwarding: when the popped value was produced by
				// the latest op, write the local directly instead of
				// bouncing through the home slot. Nothing else can read
				// that home — only the popped descriptor referenced it.
				h := lo.home(len(lo.st))
				if n := len(lo.ops); n > 0 && lo.ops[n-1].Dst == h && lo.ops[n-1].Kind != KSwap {
					lo.ops[n-1].Dst = x
				} else {
					lo.emit(Op{Kind: KMov, Dst: x, A: h})
				}
			}
		case bytecode.OpInc:
			x := int32(in.Operand)
			lo.spillLocal(x)
			lo.emit(Op{Kind: KAddSI, Dst: x, A: x, Imm: int64(in.Extra)})
		case bytecode.OpNeg:
			d, err := lo.pop()
			if err != nil {
				return out, err
			}
			if d.kind == dImm {
				lo.st = append(lo.st, desc{kind: dImm, imm: -d.imm})
				break
			}
			p := len(lo.st)
			slot, _, _ := lo.operand(d, p)
			lo.emit(Op{Kind: KNeg, Dst: lo.home(p), A: slot})
			lo.st = append(lo.st, desc{kind: dHome})
		case bytecode.OpAdd, bytecode.OpSub, bytecode.OpMul, bytecode.OpAnd,
			bytecode.OpOr, bytecode.OpXor, bytecode.OpShl, bytecode.OpShr:
			if err := lo.binOp(in.Op); err != nil {
				return out, err
			}
		case bytecode.OpDup:
			if len(lo.st) == 0 {
				return out, fmt.Errorf("dup on empty symbolic stack")
			}
			top := lo.st[len(lo.st)-1]
			if top.kind == dHome {
				p := len(lo.st) - 1
				lo.emit(Op{Kind: KMov, Dst: lo.home(p + 1), A: lo.home(p)})
			}
			lo.st = append(lo.st, top)
		case bytecode.OpPop:
			if _, err := lo.pop(); err != nil {
				return out, err
			}
		case bytecode.OpSwap:
			n := len(lo.st)
			if n < 2 {
				return out, fmt.Errorf("swap on short symbolic stack")
			}
			a, b := lo.st[n-2], lo.st[n-1] // a below b
			switch {
			case a.kind == dHome && b.kind == dHome:
				lo.emit(Op{Kind: KSwap, A: lo.home(n - 2), B: lo.home(n - 1)})
			case a.kind == dHome: // b is lazy: move a's value up, b sinks lazily
				lo.emit(Op{Kind: KMov, Dst: lo.home(n - 1), A: lo.home(n - 2)})
				lo.st[n-2], lo.st[n-1] = b, desc{kind: dHome}
			case b.kind == dHome: // a is lazy: move b's value down
				lo.emit(Op{Kind: KMov, Dst: lo.home(n - 2), A: lo.home(n - 1)})
				lo.st[n-2], lo.st[n-1] = desc{kind: dHome}, a
			default:
				lo.st[n-2], lo.st[n-1] = b, a
			}

		case bytecode.OpDiv:
			if err := lo.trap(i, KDivSS, 2, 1); err != nil {
				return out, err
			}
		case bytecode.OpRem:
			if err := lo.trap(i, KRemSS, 2, 1); err != nil {
				return out, err
			}
		case bytecode.OpNewArray:
			if err := lo.effect(i, EffNewArray, 0, 1, 1); err != nil {
				return out, err
			}
		case bytecode.OpALoad:
			if err := lo.trap(i, KALoad, 2, 1); err != nil {
				return out, err
			}
		case bytecode.OpAStore:
			if err := lo.trap(i, KAStore, 3, 0); err != nil {
				return out, err
			}
		case bytecode.OpArrayLen:
			if err := lo.trap(i, KArrayLen, 1, 1); err != nil {
				return out, err
			}
		case bytecode.OpGetStatic:
			if err := lo.effect(i, EffGetStatic, int32(in.Operand), 0, 1); err != nil {
				return out, err
			}
		case bytecode.OpPutStatic:
			if err := lo.effect(i, EffPutStatic, int32(in.Operand), 1, 0); err != nil {
				return out, err
			}
		case bytecode.OpInvokeStatic, bytecode.OpInvokeVirtual:
			if in.Operand < 0 || in.Operand >= len(def.Refs) {
				return out, fmt.Errorf("ref index %d out of range", in.Operand)
			}
			d, err := classfile.ParseDescriptor(def.Refs[in.Operand].Desc)
			if err != nil {
				return out, err
			}
			pops := d.ParamWords
			if in.Op == bytecode.OpInvokeVirtual {
				pops++
			}
			pushes := 0
			if d.ReturnsValue {
				pushes = 1
			}
			if err := lo.effect(i, EffInvoke, int32(in.Operand), pops, pushes); err != nil {
				return out, err
			}

		case bytecode.OpGoto:
			lo.materializeAll()
			lo.flushPure(int32(i))
			target, err := lo.blockIndex(in.Operand)
			if err != nil {
				return out, err
			}
			out.Term = Term{Kind: TermGoto, Idx: int32(i), N: 1, SP: int32(len(lo.st)), Target: target, Next: -1}
		case bytecode.OpIfeq, bytecode.OpIfne, bytecode.OpIflt,
			bytecode.OpIfge, bytecode.OpIfgt, bytecode.OpIfle:
			d, err := lo.pop()
			if err != nil {
				return out, err
			}
			lo.materializeAll()
			lo.flushPure(int32(i))
			target, err := lo.blockIndex(in.Operand)
			if err != nil {
				return out, err
			}
			t := Term{Kind: TermBr1, Idx: int32(i), N: 1, SP: int32(len(lo.st) + 1), Cond: byte(in.Op),
				Target: target, Next: fallTo(i + 1)}
			t.A, t.ImmA, t.AImm = lo.termOperand(d, len(lo.st))
			out.Term = t
		case bytecode.OpIfcmpeq, bytecode.OpIfcmpne, bytecode.OpIfcmplt, bytecode.OpIfcmpge:
			b, err := lo.pop()
			if err != nil {
				return out, err
			}
			a, err := lo.pop()
			if err != nil {
				return out, err
			}
			lo.materializeAll()
			lo.flushPure(int32(i))
			target, err := lo.blockIndex(in.Operand)
			if err != nil {
				return out, err
			}
			t := Term{Kind: TermBr2, Idx: int32(i), N: 1, SP: int32(len(lo.st) + 2), Cond: byte(in.Op),
				Target: target, Next: fallTo(i + 1)}
			t.A, t.ImmA, t.AImm = lo.termOperand(a, len(lo.st))
			t.B, t.ImmB, t.BImm = lo.termOperand(b, len(lo.st)+1)
			out.Term = t
		case bytecode.OpReturn:
			lo.flushPure(int32(i))
			out.Term = Term{Kind: TermReturn, Idx: int32(i), N: 1, SP: int32(len(lo.st)), Target: -1, Next: -1}
		case bytecode.OpIreturn:
			d, err := lo.pop()
			if err != nil {
				return out, err
			}
			lo.flushPure(int32(i))
			t := Term{Kind: TermIreturn, Idx: int32(i), N: 1, SP: int32(len(lo.st) + 1), Target: -1, Next: -1}
			t.A, t.ImmA, t.AImm = lo.termOperand(d, len(lo.st))
			out.Term = t
		case bytecode.OpThrow:
			d, err := lo.pop()
			if err != nil {
				return out, err
			}
			lo.flushPure(int32(i))
			t := Term{Kind: TermThrow, Idx: int32(i), N: 1, SP: int32(len(lo.st) + 1), Target: -1, Next: -1}
			t.A, t.ImmA, t.AImm = lo.termOperand(d, len(lo.st))
			out.Term = t
		default:
			return out, fmt.Errorf("unsupported opcode %s", in.Op)
		}

		if info, _ := bytecode.Lookup(in.Op); info.Branch || info.Terminal {
			if i != bb.End-1 {
				return out, fmt.Errorf("terminator %s not at block end", in.Op)
			}
			out.Chunks = lo.chunks
			return out, nil
		}
	}
	// Fallthrough into the next leader: materialize so the successor (and
	// the interpreter, on deopt) sees canonical state.
	lo.materializeAll()
	lo.flushPure(int32(bb.End))
	out.Term = Term{Kind: TermFall, Idx: -1, N: 0, SP: int32(len(lo.st)), Target: -1, Next: fallTo(bb.End)}
	out.Chunks = lo.chunks
	return out, nil
}

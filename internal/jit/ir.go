package jit

// The compiled-unit IR.
//
// A Unit is one compiled method: its reachable basic blocks lowered to
// fused three-address ops over a flat frame of 64-bit slots. Slot indexes
// are absolute frame positions: slots [0, MaxLocals) are the locals,
// slot MaxLocals+d is the canonical home of operand-stack depth d. The
// verifier guarantees a static stack depth at every instruction, which is
// what lets the lowering assign homes at compile time and erase most
// stack traffic (load/const/dup shuffling becomes operand addressing).
//
// Accounting fidelity: the executor must charge exactly one instruction
// per original bytecode instruction, at the same flush and yield
// boundaries the interpreter uses. The IR therefore partitions every
// block into chunks that each cover a contiguous bytecode range of known
// length: a pure chunk (only non-throwing, frame-local work) is charged
// as one batch when the yield budget strictly exceeds its length and is
// otherwise re-executed instruction by instruction from the original
// bytecode — which is sound because the frame is in canonical state at
// every chunk boundary. Effect ops (calls, heap, statics, div/rem) and
// terminators are charged singly, mirroring the interpreter's
// per-instruction path. Effects that can only throw (array access,
// div/rem) also carry a trapping op, so a block whose other chunks are
// pure still batches (see Block.CanBatch).

// Kind is a fused op: pure, or one of the trapping kinds below. Naming:
// S suffix = slot operand, I = immediate.
type Kind uint8

const (
	// KMov: fr[Dst] = fr[A].
	KMov Kind = iota
	// KMovI: fr[Dst] = Imm.
	KMovI
	// KSwap: fr[A], fr[B] = fr[B], fr[A].
	KSwap
	// KNeg: fr[Dst] = -fr[A].
	KNeg
	// KAddSS: fr[Dst] = fr[A] + fr[B].
	KAddSS
	// KAddSI: fr[Dst] = fr[A] + Imm.
	KAddSI
	// KSubSS: fr[Dst] = fr[A] - fr[B].
	KSubSS
	// KSubSI: fr[Dst] = fr[A] - Imm.
	KSubSI
	// KSubIS: fr[Dst] = Imm - fr[A].
	KSubIS
	// KMulSS: fr[Dst] = fr[A] * fr[B].
	KMulSS
	// KMulSI: fr[Dst] = fr[A] * Imm.
	KMulSI
	// KMulAddSII: fr[Dst] = fr[A]*Imm + Imm2 — the linear-congruence
	// shape (x*31+7) every generated loop kernel runs, fused to one op.
	KMulAddSII
	// KAndSS: fr[Dst] = fr[A] & fr[B].
	KAndSS
	// KAndSI: fr[Dst] = fr[A] & Imm.
	KAndSI
	// KOrSS: fr[Dst] = fr[A] | fr[B].
	KOrSS
	// KOrSI: fr[Dst] = fr[A] | Imm.
	KOrSI
	// KXorSS: fr[Dst] = fr[A] ^ fr[B].
	KXorSS
	// KXorSI: fr[Dst] = fr[A] ^ Imm.
	KXorSI
	// KShlSS: fr[Dst] = fr[A] << (uint64(fr[B]) & 63).
	KShlSS
	// KShlSI: fr[Dst] = fr[A] << (uint64(Imm) & 63).
	KShlSI
	// KShlIS: fr[Dst] = Imm << (uint64(fr[A]) & 63).
	KShlIS
	// KShrSS: fr[Dst] = fr[A] >> (uint64(fr[B]) & 63) (arithmetic).
	KShrSS
	// KShrSI: fr[Dst] = fr[A] >> (uint64(Imm) & 63).
	KShrSI
	// KShrIS: fr[Dst] = Imm >> (uint64(fr[A]) & 63).
	KShrIS

	// Trapping kinds: the effects whose only way out of straight-line
	// execution is a throw. A trapping op leaves the frame untouched
	// when it traps; Imm holds its bytecode instruction index, which the
	// executor needs to un-charge the rest of a batch and to dispatch
	// the handler.

	// KDivSS: fr[Dst] = fr[A] / fr[B]; traps when fr[B] == 0.
	KDivSS
	// KRemSS: fr[Dst] = fr[A] % fr[B]; traps when fr[B] == 0.
	KRemSS
	// KALoad: fr[Dst] = array(fr[A])[fr[B]]; traps on a bad handle or
	// index.
	KALoad
	// KAStore: array(fr[A])[fr[B]] = fr[Dst] — Dst is read, not written;
	// traps on a bad handle or index.
	KAStore
	// KArrayLen: fr[Dst] = len(array(fr[A])); traps on a bad handle.
	KArrayLen
)

// Op is one fused op.
type Op struct {
	Kind Kind
	// Dst, A, B are absolute frame-slot indexes.
	Dst, A, B int32
	// Imm, Imm2 are immediate operands (Imm2 only for KMulAddSII); a
	// trapping kind's Imm is its bytecode instruction index.
	Imm, Imm2 int64
}

// EffKind is an effectful op: it can throw, call, or touch state outside
// the frame. Effects execute against the canonical frame (the lowering
// materializes every live stack value before one), so the executor
// addresses their operands purely by stack depth.
type EffKind uint8

const (
	// EffTrap runs the chunk's one trapping op (Chunk.Ops[0]): div, rem,
	// aload, astore or arraylen, whose only side exit is a throw.
	EffTrap EffKind = iota
	// EffNewArray pops a length, pushes a heap handle; may throw.
	EffNewArray
	// EffGetStatic pushes the static slot Refs[Ref].
	EffGetStatic
	// EffPutStatic pops into the static slot Refs[Ref].
	EffPutStatic
	// EffInvoke calls Refs[Ref]; the argument window is the canonical
	// stack top. The executor flushes deferred accounting first, exactly
	// like the interpreter's invoke case.
	EffInvoke
)

// Effect is one effectful instruction inside a block.
type Effect struct {
	Kind EffKind
	// Idx is the bytecode instruction index, for error messages, handler
	// dispatch and deopt re-entry.
	Idx int32
	// Ref indexes the method's Refs table (statics and invokes).
	Ref int32
	// SP is the operand-stack depth before the instruction executes.
	SP int32
	// Inline, for EffInvoke, indexes the unit's Inlines table when the
	// call site was inline-expanded at compile time, -1 otherwise. The
	// executor still re-validates the site's callee identity at run time
	// before taking the inline path.
	Inline int32
}

// Chunk is a contiguous bytecode range [Start, Start+N) lowered either to
// fused pure ops or to a single effect. The frame is canonical at every
// chunk boundary, so the executor can fall back to per-instruction
// stepping of the original bytecode at any chunk start.
type Chunk struct {
	// Pure marks a fused chunk; effect chunks have N == 1.
	Pure bool
	// Start is the bytecode instruction index of the first covered
	// instruction; N the number of instructions covered.
	Start, N int32
	// SP is the operand-stack depth at chunk entry, the anchor for the
	// executor's per-instruction fallback stepping.
	SP int32
	// Ops is the fused code of a pure chunk. It may be empty while N > 0:
	// the covered instructions' net effect was folded away entirely
	// (e.g. nops, or a load whose value a later chunk consumed from its
	// original slot), leaving only the accounting. An effect chunk that
	// can only throw holds its one trapping op here, addressing the
	// canonical stack homes its effect pops and pushes.
	Ops []Op
	// Eff is the effect of a non-pure chunk.
	Eff Effect
}

// TermKind classifies a block terminator.
type TermKind uint8

const (
	// TermFall falls through to block Next without an own instruction.
	TermFall TermKind = iota
	// TermGoto jumps unconditionally to block Target.
	TermGoto
	// TermBr1 pops one value and branches on a comparison with zero.
	TermBr1
	// TermBr2 pops two values and branches on their comparison.
	TermBr2
	// TermReturn returns void.
	TermReturn
	// TermIreturn returns the A/Imm operand.
	TermIreturn
	// TermThrow raises the A/Imm operand as an exception.
	TermThrow
)

// Term is a block terminator. A and B are operand descriptors: frame
// slots unless AImm/BImm select the immediate forms. For TermBr1/TermBr2
// Cond is the bytecode branch opcode whose comparison applies.
type Term struct {
	Kind TermKind
	// Idx is the bytecode instruction index of the terminator, or -1 for
	// a fallthrough; N is 1 when the terminator is a real instruction.
	Idx int32
	N   int32
	// SP is the operand-stack depth before the terminator executes (its
	// own operands included) — the canonical depth the executor records
	// when a quantum boundary lands on the terminator, so the
	// collector's root scan sees exactly the prefix the interpreter's
	// pre-instruction yield would expose.
	SP int32
	// Cond is the bytecode.Op of a conditional branch (stored as a byte
	// to keep the package independent of execution).
	Cond byte
	// A/B operand descriptors.
	A, B       int32
	AImm, BImm bool
	ImmA, ImmB int64
	// Target is the block index branched to (taken side); Next the
	// fallthrough block index. -1 marks "falls off the end of the code",
	// which the executor reports exactly as the interpreter does.
	Target, Next int32
}

// Block is one lowered basic block.
type Block struct {
	// Start is the bytecode instruction index of the leader; NInstr the
	// total instructions the block covers, terminator included.
	Start, NInstr int32
	Chunks        []Chunk
	Term          Term
	// CanBatch marks blocks whose chunks are all pure or may-trap: the
	// executor charges the whole block (terminator included) as one
	// batch when the yield budget strictly exceeds NInstr and runs Flat
	// without per-chunk bookkeeping. Flat is the chunks' ops
	// concatenated and then tidied: copies into stack homes are
	// forwarded to their readers and home writes dead at the exit are
	// dropped. The frame is canonical at every chunk boundary of Chunks,
	// but at the exit of Flat only for the live slots: the locals and the
	// homes below Term.SP. A trap inside Flat leaves the locals exact.
	// The guard keeps yield boundaries exact: when the budget is short,
	// the general per-chunk path takes over with its per-instruction
	// fallback. Because no yield can fall inside a batch, a trap needs
	// only arithmetic to stay exact: the executor un-charges the block's
	// instructions after the trapping one, then dispatches the handler
	// as the effect path would.
	CanBatch bool
	// Traps marks a batchable block whose Flat holds trapping ops; the
	// whole-activation StaticPlan refuses such blocks.
	Traps bool
	Flat  []Op
	// OpFree counts the instructions of the block's pure chunks that
	// lowered to no op of their own (folded into a neighbour's op or the
	// terminator's operands). The executor tallies it per batch it
	// charges; the tally of interpreted frames is Stats.SuperinstrPairs.
	OpFree int32
	// LoopBody marks the canonical counted-loop shape — this block is a
	// batchable header whose conditional branch falls through to a
	// batchable body block that jumps straight back here — and holds the
	// body's block index (-1 otherwise). The executor iterates the pair
	// in a fused inner loop, eliminating per-iteration block dispatch;
	// charges and guards are identical to the per-block batch path, so
	// the fusion is accounting-invisible.
	LoopBody int32
}

// InlineSite is one inline-expanded call site: the callee's own compiled
// unit plus the frame geometry the executor needs to run it inside the
// caller's scratch area. Inlining here is an execution-plan decision, not
// a code splice: the callee unit executes as a nested activation with the
// caller's exact per-call bookkeeping (invocation count, frame-entry cost
// selection, CostInvoke charge, deferred-accounting flushes and yield
// boundaries), so every simulated observable is byte-identical to the
// out-of-line call. What inlining removes is host-side dispatch only.
type InlineSite struct {
	// Key is the opaque identity of the resolved callee (the VM's runtime
	// method object). The executor compares it against the call site's
	// current resolution on every call and falls back out-of-line on any
	// mismatch, so a unit can never run a stale callee body.
	Key any
	// U is the callee's compiled unit. It is compiled without a resolver,
	// so inline expansion never nests.
	U *Unit
	// NL is the callee's local count; Slots its full frame size (locals
	// plus operand-stack homes), carved from the caller's scratch area.
	NL, Slots int32
}

// StaticPlan is a whole-activation execution plan for the canonical
// counted-kernel shape: an entry block that sets a loop counter to a
// compile-time constant, a bare counted loop (empty batchable header
// branching on the counter, batchable body stepping it by a constant),
// and a pure exit block that returns. For such a unit the trip count —
// and with it the activation's exact simulated instruction total — is
// known at compile time, so the executor can run the whole activation as
// one fused step (entry ops, body ops × Trip, exit ops, single flush)
// whenever the yield budget covers Total. Frame state and charges are
// identical to block-by-block execution: the header contributes no ops,
// only accounting, and no op can yield, throw, or touch the heap.
type StaticPlan struct {
	// Entry, Body, Exit are the flattened ops of the three blocks; Body
	// runs Trip times, the others once.
	Entry, Body, Exit []Op
	// Trip is the loop's iteration count; Total the simulated instruction
	// count of the whole activation (entry + (Trip+1) headers + Trip
	// bodies + exit, terminators included).
	Trip, Total int64
	// OpFree is the activation's op-free instruction tally: the blocks'
	// OpFree, each counted as often as the block runs.
	OpFree int64
	// Ret describes the Ireturn operand (HasRet false for a void return).
	HasRet    bool
	RetImm    bool
	Ret       int32
	RetImmVal int64
}

// Unit is one compiled method.
type Unit struct {
	Blocks []Block
	// BlockOf maps a bytecode instruction index to the index of the block
	// it leads, or -1. Handler dispatch resolves through it.
	BlockOf []int32
	// MaxLocals and NumSlots describe the frame layout: locals occupy
	// [0, MaxLocals), stack homes [MaxLocals, NumSlots).
	MaxLocals, NumSlots int
	// NumInstrs is the reachable instruction count the unit covers, an
	// invariant the compiler checks against the block accounting.
	NumInstrs int
	// Inlines lists the unit's inline-expanded call sites (EffInvoke
	// effects with Inline >= 0 index it); ScratchSlots is the extra frame
	// area the executor must reserve above NumSlots — the largest inline
	// callee frame, since inline expansion never nests.
	Inlines      []InlineSite
	ScratchSlots int
	// Static is the whole-activation plan for counted-kernel units, nil
	// when the unit doesn't match the shape.
	Static *StaticPlan
}

package bytecode

import (
	"fmt"

	"repro/internal/classfile"
)

// BasicBlock is one basic block of a method body, in instruction-index
// coordinates: instrs[Start:End] is the block, Start is a leader (offset
// 0, a branch target, a handler start/target, or the instruction after a
// branch or terminal instruction), and no instruction inside the span is
// a leader. DepthIn is the operand-stack depth on entry, from the
// verifier's abstract interpretation.
//
// This is the control-flow metadata the template compiler in internal/jit
// consumes: it lowers one compiled trace unit per basic block and relies
// on DepthIn to assign fixed frame slots to every operand-stack position.
type BasicBlock struct {
	// Start and End delimit the block as instruction indexes [Start, End).
	Start, End int
	// Offset is the code offset of the leader instruction.
	Offset int
	// DepthIn is the operand-stack depth at block entry.
	DepthIn int
}

// BasicBlocks partitions a method body, decoded into ins, into its
// reachable basic blocks in code order, combining the leaders with the
// verifier's depth analysis over that one decode. Unreachable leaders
// (dead code the verifier tolerates) are omitted — the interpreter can
// never enter them, so a compiler need not lower them. Depth
// inconsistencies and misaligned leaders are errors, mirroring Verify.
func BasicBlocks(m *classfile.Method, ins []Instruction) ([]BasicBlock, error) {
	depth, err := depthsOf(m, ins)
	if err != nil {
		return nil, err
	}
	isLeader := make([]bool, len(ins))
	var bad error
	eachLeader(m, ins, func(off int) {
		i, ok := IndexAt(ins, off)
		if !ok && bad == nil {
			bad = fmt.Errorf("bytecode: %s: leader offset %d misaligned", m.Key(), off)
		}
		isLeader[i] = true
	})
	if bad != nil {
		return nil, bad
	}
	var out []BasicBlock
	for start := 0; start < len(ins); {
		end := start + 1
		for end < len(ins) && !isLeader[end] {
			end++
		}
		if d := depth[start]; d >= 0 {
			out = append(out, BasicBlock{Start: start, End: end, Offset: ins[start].Offset, DepthIn: d})
		}
		start = end
	}
	return out, nil
}

package bytecode

import (
	"fmt"
	"sort"

	"repro/internal/classfile"
)

// ComputeDepths performs the verifier's abstract interpretation over
// operand-stack depths and returns the depth at every reachable
// instruction offset. Unreachable instructions are absent from the map.
// It fails on the same inconsistencies Verify rejects (underflow,
// inconsistent merge depths); callers that rewrote control flow use it to
// seed an Assembler's depth model at labels.
func ComputeDepths(m *classfile.Method) (map[int]int, error) {
	ins, err := Decode(m.Code)
	if err != nil {
		return nil, fmt.Errorf("bytecode: %s: %w", m.Key(), err)
	}
	depth, err := depthsOf(m, ins)
	if err != nil {
		return nil, err
	}
	out := make(map[int]int, len(ins))
	for i, d := range depth {
		if d >= 0 {
			out[ins[i].Offset] = d
		}
	}
	return out, nil
}

// depthsOf is ComputeDepths over an already decoded body: the depth at
// every instruction index, -1 where unreachable.
func depthsOf(m *classfile.Method, ins []Instruction) ([]int, error) {
	if len(ins) == 0 {
		return nil, fmt.Errorf("bytecode: %s: empty code", m.Key())
	}
	depth := make([]int, len(ins))
	for i := range depth {
		depth[i] = -1
	}
	type workItem struct{ idx, d int }
	work := []workItem{{0, 0}}
	for _, h := range m.Handlers {
		hi, ok := IndexAt(ins, int(h.HandlerPC))
		if !ok {
			return nil, fmt.Errorf("bytecode: %s: handler target %d misaligned", m.Key(), h.HandlerPC)
		}
		work = append(work, workItem{hi, 1})
	}
	for len(work) > 0 {
		it := work[len(work)-1]
		work = work[:len(work)-1]
		if depth[it.idx] != -1 {
			if depth[it.idx] != it.d {
				return nil, fmt.Errorf("bytecode: %s: inconsistent depth at offset %d (%d vs %d)",
					m.Key(), ins[it.idx].Offset, depth[it.idx], it.d)
			}
			continue
		}
		depth[it.idx] = it.d
		in := ins[it.idx]
		info, _ := Lookup(in.Op)
		pops, pushes := info.Pops, info.Pushes
		if in.Op.IsInvoke() {
			if in.Operand >= len(m.Refs) {
				return nil, fmt.Errorf("bytecode: %s: ref index out of range at %d", m.Key(), in.Offset)
			}
			ref := m.Refs[in.Operand]
			d, err := classfile.ParseDescriptor(ref.Desc)
			if err != nil {
				return nil, err
			}
			pops = d.ParamWords
			if in.Op == OpInvokeVirtual {
				pops++
			}
			pushes = 0
			if d.ReturnsValue {
				pushes = 1
			}
		}
		nd := it.d - pops
		if nd < 0 {
			return nil, fmt.Errorf("bytecode: %s: stack underflow at offset %d", m.Key(), in.Offset)
		}
		nd += pushes
		if info.Branch {
			bi, ok := IndexAt(ins, in.Operand)
			if !ok {
				return nil, fmt.Errorf("bytecode: %s: branch target %d misaligned", m.Key(), in.Operand)
			}
			work = append(work, workItem{bi, nd})
		}
		if !info.Terminal {
			if it.idx+1 >= len(ins) {
				return nil, fmt.Errorf("bytecode: %s: falls off end", m.Key())
			}
			work = append(work, workItem{it.idx + 1, nd})
		}
	}
	return depth, nil
}

// IndexAt maps a code offset to the index of the instruction starting
// there; ok is false for an offset no instruction starts at. ins must be
// a decoded body (ascending offsets).
func IndexAt(ins []Instruction, off int) (int, bool) {
	i := sort.Search(len(ins), func(i int) bool { return ins[i].Offset >= off })
	if i < len(ins) && ins[i].Offset == off {
		return i, true
	}
	return 0, false
}

// Leaders returns the basic-block leader offsets of a method body, in
// ascending order: offset 0, every branch target, every handler start and
// handler target, and every instruction following a branch or terminal
// instruction.
func Leaders(m *classfile.Method) ([]int, error) {
	ins, err := Decode(m.Code)
	if err != nil {
		return nil, err
	}
	if len(ins) == 0 {
		return nil, nil
	}
	leaders := map[int]bool{}
	eachLeader(m, ins, func(off int) { leaders[off] = true })
	out := make([]int, 0, len(leaders))
	for off := range leaders {
		out = append(out, off)
	}
	sort.Ints(out)
	return out, nil
}

// eachLeader calls mark with every leader offset of a non-empty decoded
// body, possibly more than once per offset.
func eachLeader(m *classfile.Method, ins []Instruction, mark func(off int)) {
	mark(0)
	for i, in := range ins {
		info, _ := Lookup(in.Op)
		if info.Branch {
			mark(in.Operand)
			if i+1 < len(ins) {
				mark(ins[i+1].Offset)
			}
		} else if info.Terminal && i+1 < len(ins) {
			mark(ins[i+1].Offset)
		}
	}
	for _, h := range m.Handlers {
		mark(int(h.StartPC))
		mark(int(h.HandlerPC))
		if int(h.EndPC) < len(m.Code) {
			mark(int(h.EndPC))
		}
	}
}

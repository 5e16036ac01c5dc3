package bytecode

import (
	"fmt"

	"repro/internal/classfile"
)

// Verify performs a structural verification of a method body, the
// equivalent of the JVM's bytecode verifier restricted to the properties
// the simulator relies on:
//
//   - every opcode is known and its operands are complete;
//   - branch targets and exception-handler boundaries land on instruction
//     starts;
//   - constant and reference indices are within the method's tables;
//   - local-variable slots are within MaxLocals;
//   - invoke targets have parseable descriptors;
//   - execution cannot fall off the end of the code;
//   - the operand stack never underflows and stays within MaxStack on every
//     path (computed by abstract interpretation over depths).
//
// Native and abstract methods verify trivially.
func Verify(m *classfile.Method) error {
	_, err := verifyDecoded(m)
	return err
}

// verifyDecoded is Verify that also hands back the decoded body, nil for
// a bodyless method.
func verifyDecoded(m *classfile.Method) ([]Instruction, error) {
	if m.IsNative() || m.IsAbstract() {
		if len(m.Code) != 0 {
			return nil, fmt.Errorf("bytecode: %s: bodyless method has code", m.Key())
		}
		return nil, nil
	}
	ins, err := Decode(m.Code)
	if err != nil {
		return nil, fmt.Errorf("bytecode: %s: %w", m.Key(), err)
	}
	if len(ins) == 0 {
		return nil, fmt.Errorf("bytecode: %s: concrete method has empty code", m.Key())
	}
	if err := verifyBody(m, ins); err != nil {
		return nil, err
	}
	return ins, nil
}

// verifyBody runs Verify's checks on a method's decoded, non-empty body.
func verifyBody(m *classfile.Method, ins []Instruction) error {
	starts := make(map[int]int, len(ins)) // offset -> instruction index
	for i, in := range ins {
		starts[in.Offset] = i
	}

	// Static per-instruction checks.
	for _, in := range ins {
		info, _ := Lookup(in.Op)
		switch {
		case info.Branch:
			if _, ok := starts[in.Operand]; !ok {
				return fmt.Errorf("bytecode: %s: branch at %d targets %d, not an instruction start",
					m.Key(), in.Offset, in.Operand)
			}
		case info.ConstIndex:
			if in.Operand >= len(m.Consts) {
				return fmt.Errorf("bytecode: %s: const index %d out of range at %d",
					m.Key(), in.Operand, in.Offset)
			}
		case info.RefIndex:
			if in.Operand >= len(m.Refs) {
				return fmt.Errorf("bytecode: %s: ref index %d out of range at %d",
					m.Key(), in.Operand, in.Offset)
			}
			ref := m.Refs[in.Operand]
			if in.Op.IsInvoke() {
				if ref.Kind != classfile.RefMethod {
					return fmt.Errorf("bytecode: %s: invoke at %d references a %s",
						m.Key(), in.Offset, ref.Kind)
				}
				if _, err := classfile.ParseDescriptor(ref.Desc); err != nil {
					return fmt.Errorf("bytecode: %s: invoke at %d: %w", m.Key(), in.Offset, err)
				}
			} else if ref.Kind != classfile.RefField {
				return fmt.Errorf("bytecode: %s: field access at %d references a %s",
					m.Key(), in.Offset, ref.Kind)
			}
		case in.Op == OpLoad || in.Op == OpStore || in.Op == OpInc:
			if in.Operand >= m.MaxLocals {
				return fmt.Errorf("bytecode: %s: local slot %d out of range (MaxLocals=%d) at %d",
					m.Key(), in.Operand, m.MaxLocals, in.Offset)
			}
		}
	}

	// Handler boundaries must align with instruction starts (EndPC may be
	// the end of the code).
	for hi, h := range m.Handlers {
		if _, ok := starts[int(h.StartPC)]; !ok {
			return fmt.Errorf("bytecode: %s: handler %d start %d misaligned", m.Key(), hi, h.StartPC)
		}
		if int(h.EndPC) != len(m.Code) {
			if _, ok := starts[int(h.EndPC)]; !ok {
				return fmt.Errorf("bytecode: %s: handler %d end %d misaligned", m.Key(), hi, h.EndPC)
			}
		}
		if _, ok := starts[int(h.HandlerPC)]; !ok {
			return fmt.Errorf("bytecode: %s: handler %d target %d misaligned", m.Key(), hi, h.HandlerPC)
		}
	}

	// Abstract interpretation over stack depths.
	depth := make([]int, len(ins))
	for i := range depth {
		depth[i] = -1 // unvisited
	}
	type workItem struct{ idx, d int }
	var work []workItem
	work = append(work, workItem{0, 0})
	// Exception handlers start with exactly the thrown value on the stack.
	for _, h := range m.Handlers {
		work = append(work, workItem{starts[int(h.HandlerPC)], 1})
	}
	for len(work) > 0 {
		it := work[len(work)-1]
		work = work[:len(work)-1]
		if depth[it.idx] != -1 {
			if depth[it.idx] != it.d {
				return fmt.Errorf("bytecode: %s: inconsistent stack depth at offset %d (%d vs %d)",
					m.Key(), ins[it.idx].Offset, depth[it.idx], it.d)
			}
			continue
		}
		depth[it.idx] = it.d
		in := ins[it.idx]
		info, _ := Lookup(in.Op)
		pops, pushes := info.Pops, info.Pushes
		if in.Op.IsInvoke() {
			ref := m.Refs[in.Operand]
			d, _ := classfile.ParseDescriptor(ref.Desc)
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
			return fmt.Errorf("bytecode: %s: stack underflow at offset %d", m.Key(), in.Offset)
		}
		nd += pushes
		if nd > m.MaxStack {
			return fmt.Errorf("bytecode: %s: stack depth %d exceeds MaxStack %d at offset %d",
				m.Key(), nd, m.MaxStack, in.Offset)
		}
		if info.Branch {
			work = append(work, workItem{starts[in.Operand], nd})
		}
		if !info.Terminal {
			if it.idx+1 >= len(ins) {
				return fmt.Errorf("bytecode: %s: execution falls off the end of the code", m.Key())
			}
			work = append(work, workItem{it.idx + 1, nd})
		}
	}
	return nil
}

// VerifyClass verifies every method of a class.
func VerifyClass(c *classfile.Class) error {
	_, err := VerifyClassDecoded(c)
	return err
}

// VerifyClassDecoded is VerifyClass that also hands back each method's
// decoded body, indexed like c.Methods (nil for bodyless methods), so a
// class loader decodes every body once.
func VerifyClassDecoded(c *classfile.Class) ([][]Instruction, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	bodies := make([][]Instruction, len(c.Methods))
	for i, m := range c.Methods {
		ins, err := verifyDecoded(m)
		if err != nil {
			return nil, fmt.Errorf("class %s: %w", c.Name, err)
		}
		bodies[i] = ins
	}
	return bodies, nil
}

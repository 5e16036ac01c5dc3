package vm

import (
	"repro/internal/bounded"
	"repro/internal/bytecode"
	"repro/internal/classfile"
	"repro/internal/jit"
)

// The class image store: what loading makes of a class that no VM ever
// writes — the verifier's verdict, each method's decoded body, dispatch
// metadata and lowering — kept once per process for each distinct class
// content, so every VM that loads the same bytes shares one read-only
// copy. It is the simulator's analogue of HotSpot's Class Data Sharing
// (JEP 310), which shares the parsed and verified form of classes across
// JVM instances. Only classes that verified are stored: a class that
// fails goes through the full load every time and fails the same way.

// classImageMax bounds the store. When it is full, the next new class
// content clears it, so a process that keeps meeting new classes holds at
// most this many images. An image retains about 17 KB, and every
// collection of the Go heap marks it; the all-family campaign as
// none+ipa needs 42 images and the paper grid 23.
const classImageMax = 64

// methodImage is the part of a Method that loading computes from the
// class content alone.
type methodImage struct {
	argWords int
	returns  bool
	instrs   []bytecode.Instruction

	// Link-time dispatch metadata, computed once per class content so the
	// interpreter's hot loop never consults a map or scans a table, and
	// reads one byte + one int32 per dispatch instead of a 32-byte
	// Instruction.
	//
	// ops and operands mirror instrs index-for-index. A branch's operand
	// is pre-resolved to the target *instruction index*; OpInc packs
	// slot|delta<<16 (delta sign-extends); everything else keeps its
	// decoded operand. handlerIdx is the instruction index of the
	// innermost exception handler covering each instruction (-1 when
	// uncovered).
	ops        []bytecode.Op
	operands   []int32
	handlerIdx []int32
	// lowered is the method's one lowering (jit.Lower), nil when the
	// lowering rejected the method. It is link-independent, so no class
	// load ever invalidates it: every uninstrumented frame of the method,
	// interpreted or promoted, runs it on the block executor.
	lowered *jit.Unit
}

// images is the process-wide store, keyed by classImageKey.
var images = bounded.New[[]methodImage](classImageMax)

// classImageKey appends def's key to dst: the armed jit test defect,
// which the lowering depends on, then def's classfile encoding. ok is
// false when def cannot be encoded, and so cannot be stored.
func classImageKey(dst []byte, def *classfile.Class, defect string) (key []byte, ok bool) {
	dst = append(dst, byte(len(defect)))
	dst = append(dst, defect...)
	key, err := classfile.AppendClass(dst, def)
	return key, err == nil
}

// loadImage returns the load products of def, indexed like def.Methods:
// the stored image of the same content, or a fresh one, which it stores.
func loadImage(def *classfile.Class) ([]methodImage, error) {
	defect := jit.ArmedTestDefect()
	buf := bounded.KeyBuf()
	defer bounded.PutKeyBuf(buf)
	key, keyed := classImageKey(*buf, def, defect)
	*buf = key
	if keyed {
		if img, hit := images.Get(key); hit {
			return img, nil
		}
	}
	img, err := buildImage(def)
	if err != nil {
		return nil, err
	}
	// A defect armed or disarmed while the class lowered leaves the
	// lowering's defect unknown: do not store it.
	if keyed && jit.ArmedTestDefect() == defect {
		images.Put(key, img)
	}
	return img, nil
}

// buildImage verifies def, decoding every body once, and computes each
// method's load products.
func buildImage(def *classfile.Class) ([]methodImage, error) {
	bodies, err := bytecode.VerifyClassDecoded(def)
	if err != nil {
		return nil, err
	}
	img := make([]methodImage, len(def.Methods))
	for i, md := range def.Methods {
		mi := &img[i]
		args, err := md.ArgWords()
		if err != nil {
			return nil, err
		}
		mi.argWords = args
		mi.returns, _ = md.ReturnsValue()
		if bodies[i] != nil {
			mi.link(md, bodies[i])
		}
	}
	return img, nil
}

// link precomputes the interpreter's per-instruction dispatch metadata —
// branch-target and exception-handler instruction indexes — and lowers
// the method for the block executor. Missing branch or handler offsets
// map to instruction 0, matching the historical map-lookup behaviour;
// the verifier rejects such code before it reaches the interpreter.
func (mi *methodImage) link(def *classfile.Method, ins []bytecode.Instruction) {
	mi.instrs = ins
	mi.ops = make([]bytecode.Op, len(ins))
	mi.operands = make([]int32, len(ins))
	mi.handlerIdx = make([]int32, len(ins))
	for i, in := range ins {
		mi.ops[i] = in.Op
		switch info, _ := bytecode.Lookup(in.Op); {
		case info.Branch:
			tgt, _ := bytecode.IndexAt(ins, in.Operand)
			mi.operands[i] = int32(tgt)
		case in.Op == bytecode.OpInc:
			mi.operands[i] = int32(in.Operand) | int32(in.Extra)<<16
		case in.Operand >= 0:
			mi.operands[i] = int32(in.Operand)
		}
		mi.handlerIdx[i] = -1
		for _, h := range def.Handlers {
			if in.Offset >= int(h.StartPC) && in.Offset < int(h.EndPC) {
				hi, _ := bytecode.IndexAt(ins, int(h.HandlerPC))
				mi.handlerIdx[i] = int32(hi)
				break
			}
		}
	}
	if u, err := jit.Lower(def, ins); err == nil {
		mi.lowered = u
	}
}

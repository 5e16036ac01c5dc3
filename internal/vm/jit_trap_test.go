package vm

import (
	"testing"

	"repro/internal/bytecode"
	"repro/internal/classfile"
	"repro/internal/jit"
)

// trapLoop assembles probe(x): a counted loop over i = 0..7 whose body
// first runs the instructions op emits (with i in local 1, acc in local 2
// and the handle setArr stored in local 3) and then more arithmetic, so a
// trap lands mid-block with instructions left to un-charge. With catch,
// a handler covering the body folds the thrown value into acc and resumes
// at the next iteration; without it the first trap ends the call. With
// lenInHeader the loop bound is len(arr), so the header block traps too.
func trapLoop(t *testing.T, setArr, op func(a *bytecode.Assembler), catch, lenInHeader bool) *classfile.Class {
	t.Helper()
	a := bytecode.NewAssembler()
	setArr(a)
	a.Store(3)
	a.Const(0)
	a.Store(1)
	a.Load(0)
	a.Store(2)
	top, end, step := a.NewLabel(), a.NewLabel(), a.NewLabel()
	a.Bind(top)
	a.Load(1)
	if lenInHeader {
		a.Load(3)
		a.ArrayLen()
	} else {
		a.Const(8)
	}
	a.IfCmpge(end)
	bodyStart := a.Offset()
	op(a)
	a.Load(2) // acc = acc*3 + i
	a.Const(3)
	a.Mul()
	a.Load(1)
	a.Add()
	a.Store(2)
	bodyEnd := a.Offset()
	a.Bind(step)
	a.Inc(1, 1)
	a.Goto(top)
	a.Bind(end)
	a.Load(2)
	a.IReturn()
	var handlers []classfile.ExceptionEntry
	if catch {
		h := a.Offset()
		a.EnterHandler()
		a.Load(2)
		a.Xor()
		a.Store(2)
		a.Goto(step)
		handlers = []classfile.ExceptionEntry{{StartPC: bodyStart, EndPC: bodyEnd, HandlerPC: h}}
	}
	m, err := a.FinishMethod("probe", "(J)J", classfile.AccPublic|classfile.AccStatic, 4, handlers)
	if err != nil {
		t.Fatal(err)
	}
	if err := bytecode.Verify(m); err != nil {
		t.Fatal(err)
	}
	return mustClass(t, "p/Trap", m)
}

// trapCase is one trapLoop program: arr sets the array handle, op emits
// the body's array or arithmetic access.
type trapCase struct {
	name        string
	arr, op     func(a *bytecode.Assembler)
	lenInHeader bool
}

// trapCases covers every trap kind — out-of-range index, null and
// never-allocated handles, div and rem by zero, plus in-range controls —
// in the loop body and in the loop header.
func trapCases() []trapCase {
	newArr := func(n int64) func(a *bytecode.Assembler) {
		return func(a *bytecode.Assembler) {
			a.Const(n)
			a.NewArray()
		}
	}
	handle := func(h int64) func(a *bytecode.Assembler) {
		return func(a *bytecode.Assembler) { a.Const(h) }
	}
	store := func(a *bytecode.Assembler) { // arr[i] = i
		a.Load(3)
		a.Load(1)
		a.Load(1)
		a.AStore()
	}
	load := func(a *bytecode.Assembler) { // acc += arr[i]
		a.Load(2)
		a.Load(3)
		a.Load(1)
		a.ALoad()
		a.Add()
		a.Store(2)
	}
	length := func(a *bytecode.Assembler) { // acc ^= len(arr)
		a.Load(2)
		a.Load(3)
		a.ArrayLen()
		a.Xor()
		a.Store(2)
	}
	divide := func(rem bool) func(a *bytecode.Assembler) { // acc = acc op (i-5)
		return func(a *bytecode.Assembler) {
			a.Load(2)
			a.Load(1)
			a.Const(5)
			a.Sub()
			if rem {
				a.Rem()
			} else {
				a.Div()
			}
			a.Store(2)
		}
	}
	return []trapCase{
		{"in-range", newArr(8), store, false},
		{"astore-out-of-range", newArr(4), store, false},
		{"aload-out-of-range", newArr(3), load, false},
		{"aload-null", handle(0), load, false},
		{"astore-invalid-handle", handle(1 << 20), store, false},
		{"arraylen-null", handle(0), length, false},
		{"div-by-zero", newArr(8), divide(false), false},
		{"rem-by-zero", newArr(8), divide(true), false},
		{"header-arraylen-null", handle(0), store, true},
		{"header-in-range", newArr(6), load, true},
	}
}

// batchesTraps reports whether cls's first method lowers to a batchable
// loop block holding trapping ops.
func batchesTraps(t *testing.T, cls *classfile.Class) bool {
	t.Helper()
	ins, err := bytecode.Decode(cls.Methods[0].Code)
	if err != nil {
		t.Fatal(err)
	}
	u, err := jit.Lower(cls.Methods[0], ins)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range u.Blocks {
		if b.CanBatch && b.Traps && b.Start > 0 {
			return true
		}
	}
	return false
}

// TestJITArrayTrapMidBatch pins the may-trap batch rule: array ops and
// div/rem inside a batched compiled block trap at exactly the
// interpreter's instruction. For every trap kind (out-of-range index,
// null and never-allocated handles, div and rem by zero, plus an
// in-range control), with and without a covering handler, in the loop
// body and in the loop header, the result, error, cycles, instruction
// count, ground truth and the yield budget left after every call — which
// fixes every later yield point — equal both interpreters'. The quanta
// put the same blocks on the batch path (default, 40) and on the
// per-chunk path with yields between instructions (7).
func TestJITArrayTrapMidBatch(t *testing.T) {
	for _, c := range trapCases() {
		for _, catch := range []bool{false, true} {
			cls := trapLoop(t, c.arr, c.op, catch, c.lenInHeader)
			if !batchesTraps(t, cls) {
				t.Fatalf("%s: no batchable loop block with trapping ops", c.name)
			}
			for _, q := range []int{0, 40, 7} {
				jv := runEnginesQuantum(t, q, cls, "probe", 6, 11)
				if jv.TierStats().CompiledFrames == 0 {
					t.Fatalf("%s catch=%v quantum %d: no compiled frames", c.name, catch, q)
				}
			}
		}
	}
}

// TestInterpretedFrameTraps: interpreted frames run the same may-trap
// batches. For every trap case, with and without a covering handler,
// every quantum from 1 to 12 and the default leave the result, error,
// cycles, instruction count, ground truth and yield budget of the
// instrumented loop on the interp engine; at the default quantum the
// frame batches without counting a compiled frame.
func TestInterpretedFrameTraps(t *testing.T) {
	for _, c := range trapCases() {
		for _, catch := range []bool{false, true} {
			cls := trapLoop(t, c.arr, c.op, catch, c.lenInHeader)
			if !batchesTraps(t, cls) {
				t.Fatalf("%s: no batchable loop block with trapping ops", c.name)
			}
			for q := 0; q <= 12; q++ { // 0: the default quantum
				opts := DefaultOptions()
				if q > 0 {
					opts.Quantum = q
				}
				_, _, fv := runLoops(t, opts, cls, nil, "probe", "(J)J", 11)
				st := fv.TierStats()
				if st.CompiledFrames != 0 || (q == 0 && st.SuperinstrPairs == 0) {
					t.Fatalf("%s catch=%v quantum %d: %+v", c.name, catch, opts.Quantum, st)
				}
			}
		}
	}
}

// TestInterpretedFrameCalleeThrowCaught: an exception raised in a callee
// — by a trapping op of the callee's own batch, div by zero when the
// loop counter reaches 3 — unwinds into an interpreted caller whose
// handler folds the thrown value (the dividend, 498) into the
// accumulator and resumes the loop, byte-identically to the instrumented
// loop at every quantum. With method events on (SPA's setting, which
// disables the JIT) the frames still run on the block executor and never
// deopt after an invoke.
func TestInterpretedFrameCalleeThrowCaught(t *testing.T) {
	d := bytecode.NewAssembler() // div(x, y) = x / y
	d.Load(0)
	d.Load(1)
	d.Div()
	d.IReturn()
	div, err := d.FinishMethod("div", "(JJ)J", classfile.AccStatic, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	// drive(n): acc = 0; for i = n; i > 0; i-- {
	//   try { acc += div(acc+100, i-3) } catch (v) { acc ^= v } }
	a := bytecode.NewAssembler()
	a.Const(0)
	a.Store(1)
	top, end, step := a.NewLabel(), a.NewLabel(), a.NewLabel()
	a.Bind(top)
	a.Load(0)
	a.Ifle(end)
	start := a.Offset()
	a.Load(1)
	a.Const(100)
	a.Add()
	a.Load(0)
	a.Const(3)
	a.Sub()
	a.InvokeStatic("fp/call", "div", "(JJ)J")
	a.Load(1)
	a.Add()
	a.Store(1)
	stop := a.Offset()
	a.Bind(step)
	a.Inc(0, -1)
	a.Goto(top)
	a.Bind(end)
	a.Load(1)
	a.IReturn()
	h := a.Offset()
	a.EnterHandler()
	a.Load(1)
	a.Xor()
	a.Store(1)
	a.Goto(step)
	drive, err := a.FinishMethod("drive", "(J)J", classfile.AccStatic, 2,
		[]classfile.ExceptionEntry{{StartPC: start, EndPC: stop, HandlerPC: h}})
	if err != nil {
		t.Fatal(err)
	}
	cls := mustClass(t, "fp/call", drive, div)
	events := func(v *VM) { v.EnableMethodEvents(true) }
	for _, prep := range []func(*VM){nil, events} {
		for q := 0; q <= 12; q++ { // 0: the default quantum
			opts := DefaultOptions()
			if q > 0 {
				opts.Quantum = q
			}
			got, err, fv := runLoops(t, opts, cls, prep, "drive", "(J)J", 7)
			if err != nil || got != -100 {
				t.Fatalf("quantum %d: drive(7) = %d, %v; want -100", opts.Quantum, got, err)
			}
			st := fv.TierStats()
			if st.CompiledFrames != 0 || st.DeoptFrames != 0 || (q == 0 && st.SuperinstrPairs == 0) {
				t.Fatalf("quantum %d, events %v: %+v", opts.Quantum, prep != nil, st)
			}
		}
	}
}

package bytecode

import (
	"testing"

	"repro/internal/classfile"
)

// TestBasicBlocks pins the control-flow metadata the template compiler
// consumes: block spans delimited by leaders, entry depths from the
// verifier, and handler blocks entering at depth 1.
func TestBasicBlocks(t *testing.T) {
	a := NewAssembler()
	// B0: const 3, store 0 | B1(top): load 0, ifle end | B2: inc, goto
	// top | B3(end): div guarded by a handler | B4(handler): ireturn.
	a.Const(3)
	a.Store(0)
	top := a.NewLabel()
	end := a.NewLabel()
	a.Bind(top)
	a.Load(0)
	a.Ifle(end)
	a.Inc(0, -1)
	a.Goto(top)
	a.Bind(end)
	a.Const(6)
	a.Const(2)
	a.Div()
	a.IReturn()
	handler := a.Offset()
	a.EnterHandler()
	a.IReturn()
	m, err := a.FinishMethod("m", "()J", classfile.AccStatic, 1,
		[]classfile.ExceptionEntry{{StartPC: 0, EndPC: handler, HandlerPC: handler}})
	if err != nil {
		t.Fatal(err)
	}
	ins, err := Decode(m.Code)
	if err != nil {
		t.Fatal(err)
	}
	bbs, err := BasicBlocks(m, ins)
	if err != nil {
		t.Fatal(err)
	}
	if len(bbs) < 5 {
		t.Fatalf("blocks = %+v, want at least 5", bbs)
	}
	if bbs[0].Start != 0 || bbs[0].Offset != 0 || bbs[0].DepthIn != 0 {
		t.Fatalf("entry block = %+v", bbs[0])
	}
	for i, bb := range bbs {
		if bb.End <= bb.Start {
			t.Fatalf("block %d has empty span: %+v", i, bb)
		}
		if ins[bb.Start].Offset != bb.Offset {
			t.Fatalf("block %d offset mismatch: %+v", i, bb)
		}
		if i > 0 && bb.Start < bbs[i-1].End {
			t.Fatalf("blocks overlap: %+v then %+v", bbs[i-1], bb)
		}
	}
	// The handler block enters with the thrown value on the stack.
	last := bbs[len(bbs)-1]
	if last.Offset != int(handler) || last.DepthIn != 1 {
		t.Fatalf("handler block = %+v, want offset %d depth 1", last, handler)
	}
}

package jit

import (
	"flag"
	"strings"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/classfile"
)

// loopKernel assembles the generated workloads' canonical hot kernel:
// for k in 0..work { x = x*31 + 7 }; return x.
func loopKernel(t *testing.T, work int) *classfile.Method {
	t.Helper()
	a := bytecode.NewAssembler()
	a.Const(int64(work))
	a.Store(1)
	top := a.NewLabel()
	end := a.NewLabel()
	a.Bind(top)
	a.Load(1)
	a.Ifle(end)
	a.Load(0)
	a.Const(31)
	a.Mul()
	a.Const(7)
	a.Add()
	a.Store(0)
	a.Inc(1, -1)
	a.Goto(top)
	a.Bind(end)
	a.Load(0)
	a.IReturn()
	m, err := a.FinishMethod("helper", "(J)J", classfile.AccPublic|classfile.AccStatic, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCompileLoopKernelShape pins the lowering on the hot kernel: the
// recurrence fuses to a single KMulAddSII writing the local directly
// (store forwarding), every block accounts for its exact instruction
// span, and the loop blocks are batchable.
func TestCompileLoopKernelShape(t *testing.T) {
	m := loopKernel(t, 10)
	ins, err := bytecode.Decode(m.Code)
	if err != nil {
		t.Fatal(err)
	}
	u, err := Lower(m, ins)
	if err != nil {
		t.Fatal(err)
	}
	if u.NumInstrs != len(ins) {
		t.Fatalf("NumInstrs = %d, want %d (no unreachable code here)", u.NumInstrs, len(ins))
	}
	var mulAdds, totalOps int
	for _, b := range u.Blocks {
		if !b.CanBatch {
			t.Fatalf("block @%d not batchable in a pure-arithmetic kernel", b.Start)
		}
		var n int32
		for _, ch := range b.Chunks {
			if !ch.Pure {
				t.Fatalf("effect chunk in pure kernel")
			}
			n += ch.N
			totalOps += len(ch.Ops)
			for _, op := range ch.Ops {
				if op.Kind == KMulAddSII {
					mulAdds++
					if op.Dst != 0 || op.A != 0 || op.Imm != 31 || op.Imm2 != 7 {
						t.Fatalf("fused recurrence = %+v, want x0 = x0*31+7", op)
					}
				}
			}
		}
		if n+b.Term.N != b.NInstr {
			t.Fatalf("block @%d accounting: chunks %d + term %d != %d", b.Start, n, b.Term.N, b.NInstr)
		}
	}
	if mulAdds != 1 {
		t.Fatalf("mulAdd count = %d, want exactly 1 fused recurrence", mulAdds)
	}
	// The whole 6-instruction recurrence body plus the loop-control inc
	// must fuse to 2 ops; the loop header and exit contribute none.
	if totalOps > 3 {
		t.Fatalf("lowered to %d ops, expected at most 3 (fusion regressed)", totalOps)
	}
}

// TestCompileRejectsNothingInSuiteShapes: every kernel shape the workload
// generator emits must compile — a lowering gap there would silently run
// the whole suite interpreted.
func TestCompileCoversBlocksMetadata(t *testing.T) {
	m := loopKernel(t, 4)
	ins, err := bytecode.Decode(m.Code)
	if err != nil {
		t.Fatal(err)
	}
	bbs, err := bytecode.BasicBlocks(m, ins)
	if err != nil {
		t.Fatal(err)
	}
	u, err := Lower(m, ins)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Blocks) != len(bbs) {
		t.Fatalf("unit has %d blocks, metadata has %d", len(u.Blocks), len(bbs))
	}
	for i, bb := range bbs {
		if u.Blocks[i].Start != int32(bb.Start) {
			t.Fatalf("block %d = %+v, metadata %+v", i, u.Blocks[i], bb)
		}
		if u.BlockOf[bb.Start] != int32(i) {
			t.Fatalf("BlockOf[%d] = %d, want %d", bb.Start, u.BlockOf[bb.Start], i)
		}
	}
}

// TestCacheEpochInvalidation pins the relink-epoch contract: an
// Invalidate bump empties the cache and distinguishes stale stamps.
func TestCacheEpochInvalidation(t *testing.T) {
	c := NewCache()
	if c.Epoch() != 0 {
		t.Fatalf("fresh cache epoch = %d", c.Epoch())
	}
	u := &Unit{}
	c.Put("m1", u)
	c.Put("m2", u)
	if c.Len() != 2 || c.Get("m1") != u {
		t.Fatalf("cache len = %d", c.Len())
	}
	stamp := c.Epoch()
	if dropped := c.Invalidate(); dropped != 2 {
		t.Fatalf("Invalidate dropped %d, want 2", dropped)
	}
	if c.Len() != 0 || c.Get("m1") != nil {
		t.Fatal("units survived invalidation")
	}
	if c.Epoch() == stamp {
		t.Fatal("epoch did not advance")
	}
	s := c.Snapshot()
	if s.MethodsCompiled != 2 || s.UnitsInvalidated != 2 || s.UnitsLive != 0 {
		t.Fatalf("stats = %+v", s)
	}
	// Empty invalidation still bumps the epoch (a class load always
	// changes resolution state) but records no drops.
	e := c.Epoch()
	if c.Invalidate() != 0 || c.Epoch() != e+1 {
		t.Fatal("empty invalidation mishandled")
	}
}

// TestParseEngine pins the shared flag vocabulary and its rejection path.
func TestParseEngine(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Engine
	}{{"interp", EngineInterp}, {"jit", EngineJIT}, {"auto", EngineAuto}} {
		got, err := ParseEngine(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseEngine(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Fatalf("Engine(%q).String() = %q", tc.in, got)
		}
	}
	for _, bad := range []string{"", "Interp", "JIT", "fast", "interp "} {
		if _, err := ParseEngine(bad); err == nil {
			t.Fatalf("ParseEngine(%q) accepted", bad)
		} else if !strings.Contains(err.Error(), "interp, jit, auto") {
			t.Fatalf("rejection must name the allowed set, got %v", err)
		}
	}
}

// TestAddEngineFlag: the registered flag defaults to interp and round-
// trips through ParseEngine, the per-command validation convention.
func TestAddEngineFlag(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	v := AddEngineFlag(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if e, err := ParseEngine(*v); err != nil || e != EngineInterp {
		t.Fatalf("default engine = %q (%v)", *v, err)
	}
	if err := fs.Parse([]string{"-engine", "auto"}); err != nil {
		t.Fatal(err)
	}
	if e, _ := ParseEngine(*v); e != EngineAuto {
		t.Fatalf("parsed engine = %v", e)
	}
}

// TestCompileExceptionKernel: handler blocks enter at depth 1 and the
// unit maps the handler leader, the dispatch path the executor takes
// when a compiled effect throws.
func TestCompileExceptionKernel(t *testing.T) {
	a := bytecode.NewAssembler()
	a.Load(0)
	a.Load(1)
	a.Div()
	a.IReturn()
	handler := a.Offset()
	a.EnterHandler()
	a.Const(1)
	a.Add()
	a.IReturn()
	m, err := a.FinishMethod("safediv", "(JJ)J", classfile.AccPublic|classfile.AccStatic, 2,
		[]classfile.ExceptionEntry{{StartPC: 0, EndPC: handler, HandlerPC: handler}})
	if err != nil {
		t.Fatal(err)
	}
	ins, err := bytecode.Decode(m.Code)
	if err != nil {
		t.Fatal(err)
	}
	u, err := Lower(m, ins)
	if err != nil {
		t.Fatal(err)
	}
	hi, ok := bytecode.IndexAt(ins, int(handler))
	if !ok || u.BlockOf[hi] < 0 {
		t.Fatal("handler leader not mapped in BlockOf")
	}
	if sp := u.Blocks[u.BlockOf[hi]].Chunks[0].SP; sp != 1 {
		t.Fatalf("handler block enters at depth %d, want 1", sp)
	}
	var sawDiv bool
	for _, b := range u.Blocks {
		for _, ch := range b.Chunks {
			if !ch.Pure && ch.Eff.Kind == EffTrap && ch.Ops[0].Kind == KDivSS {
				sawDiv = true
				if ch.Eff.SP != 2 {
					t.Fatalf("div effect SP = %d, want 2", ch.Eff.SP)
				}
				// The trapping op divides the two canonical homes in place.
				if op := ch.Ops[0]; op.A != 2 || op.B != 3 || op.Dst != 2 || op.Imm != 2 {
					t.Fatalf("div op = %+v, want homes 2/3 into 2 at instruction 2", op)
				}
			}
		}
	}
	if !sawDiv {
		t.Fatal("div not lowered as an effect")
	}
}

// lowerAsm lowers the method a assembles.
func lowerAsm(t *testing.T, a *bytecode.Assembler, maxLocals int) *Unit {
	t.Helper()
	m, err := a.FinishMethod("k", "(J)J", classfile.AccPublic|classfile.AccStatic, maxLocals, nil)
	if err != nil {
		t.Fatal(err)
	}
	ins, err := bytecode.Decode(m.Code)
	if err != nil {
		t.Fatal(err)
	}
	u, err := Lower(m, ins)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// chunkOps is the number of ops in b's chunks: the canonical stream Flat
// was tidied from.
func chunkOps(b *Block) int {
	n := 0
	for _, ch := range b.Chunks {
		n += len(ch.Ops)
	}
	return n
}

// TestTidyArrayKernelBodies pins the batch-stream tidy on the array
// kernel db spends its time in: the fill body (arr[k] = x + k; k++) and
// the fold body (x ^= arr[k]; k++) each lower to the three ops that do
// the work, down from 5 and 6 canonical ops whose moves copy locals into
// the stack homes the trapping op addresses. The pass leaves OpFree,
// which counts from the chunks, as it is.
func TestTidyArrayKernelBodies(t *testing.T) {
	a := bytecode.NewAssembler()
	// locals: 0=x, 1=arr, 2=k
	a.Const(16)
	a.NewArray()
	a.Store(1)
	a.Const(0)
	a.Store(2)
	loop := func(body func()) {
		top, end := a.NewLabel(), a.NewLabel()
		a.Bind(top)
		a.Load(2)
		a.Const(16)
		a.IfCmpge(end)
		body()
		a.Inc(2, 1)
		a.Goto(top)
		a.Bind(end)
	}
	loop(func() { // fill
		a.Load(1)
		a.Load(2)
		a.Load(0)
		a.Load(2)
		a.Add()
		a.AStore()
	})
	a.Const(0)
	a.Store(2)
	loop(func() { // fold
		a.Load(0)
		a.Load(1)
		a.Load(2)
		a.ALoad()
		a.Xor()
		a.Store(0)
	})
	a.Load(0)
	a.IReturn()
	u := lowerAsm(t, a, 3)

	var bodies []*Block
	for bi := range u.Blocks {
		if h := &u.Blocks[bi]; h.LoopBody >= 0 {
			bodies = append(bodies, &u.Blocks[h.LoopBody])
		}
	}
	if len(bodies) != 2 {
		t.Fatalf("found %d fused loops, want fill and fold", len(bodies))
	}
	for i, want := range []struct {
		canon int
		kinds []Kind
		trap  int // index of the array op
	}{
		{5, []Kind{KAddSS, KAStore, KAddSI}, 1},
		{6, []Kind{KALoad, KXorSS, KAddSI}, 0},
	} {
		b := bodies[i]
		if n := chunkOps(b); n != want.canon {
			t.Errorf("body %d: %d canonical ops, want %d", i, n, want.canon)
		}
		if len(b.Flat) != len(want.kinds) {
			t.Fatalf("body %d: Flat = %+v, want kinds %v", i, b.Flat, want.kinds)
		}
		for j, k := range want.kinds {
			if b.Flat[j].Kind != k {
				t.Fatalf("body %d: Flat = %+v, want kinds %v", i, b.Flat, want.kinds)
			}
		}
		if op := b.Flat[want.trap]; op.A != 1 || op.B != 2 {
			t.Errorf("body %d: array op reads slots %d[%d], want the locals arr[k] (1[2])", i, op.A, op.B)
		}
		var free int32
		for _, ch := range b.Chunks {
			if ch.Pure {
				free += ch.N - int32(len(ch.Ops))
			}
		}
		if b.OpFree != free {
			t.Errorf("body %d: OpFree = %d, want %d from the chunks", i, b.OpFree, free)
		}
	}
}

// TestTidyKeepsLiveCopies pins the two limits of the tidy: a copy whose
// source is rewritten before its read stays (load i; inc i; aload reads
// the old i from its home), and a home written for a successor block
// stays even though nothing in its own block reads it.
func TestTidyKeepsLiveCopies(t *testing.T) {
	a := bytecode.NewAssembler()
	// locals: 0=arr, 1=i, 2=out
	a.Load(0)
	a.Load(1)
	a.Inc(1, 1)
	a.ALoad()
	a.Store(2)
	next := a.NewLabel()
	a.Load(2)
	a.Goto(next)
	a.Bind(next)
	a.IReturn()
	u := lowerAsm(t, a, 3)

	b := &u.Blocks[0]
	home := func(p int32) int32 { return int32(u.MaxLocals) + p }
	var keptCopy, keptExit bool
	for i, op := range b.Flat {
		if op.Kind == KMov && op.Dst == home(1) && op.A == 1 {
			keptCopy = true
			if i+1 >= len(b.Flat) || b.Flat[i+1].Kind != KAddSI {
				t.Errorf("copy of i not ahead of its increment: %+v", b.Flat)
			}
		}
		if op.Kind == KMov && op.Dst == home(0) && op.A == 2 {
			keptExit = true
		}
		if op.Kind == KALoad && op.B != home(1) {
			t.Errorf("aload index forwarded past the increment: %+v", op)
		}
	}
	if !keptCopy {
		t.Errorf("copy of i before inc dropped: %+v", b.Flat)
	}
	if !keptExit {
		t.Errorf("home write live into the successor dropped: %+v", b.Flat)
	}
	if len(b.Flat) >= chunkOps(b) {
		t.Errorf("nothing tidied: Flat %d ops, chunks %d", len(b.Flat), chunkOps(b))
	}
}

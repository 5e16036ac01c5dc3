package vm_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/classfile"
	"repro/internal/jit"
	"repro/internal/scenarios"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// TestTidyFlatEquivalent checks the lowering's batch-stream rewrite
// against the canonical stream it replaces. For every batchable block of
// every method in the paper suite, the all-family catalogue and the
// differential fuzzer's generated programs, the block's chunks' Ops
// concatenated and its Flat run on identical random frames and heaps and
// must agree on every local, every stack home live at the block's exit
// (below Term.SP), the trapping instruction and its exception, and the
// heap's contents.
func TestTidyFlatEquivalent(t *testing.T) {
	var methods []*classfile.Method
	addProgram := func(w workloads.Workload) {
		p, err := workloads.BuildWorkload(w)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for _, c := range p.Classes {
			methods = append(methods, c.Methods...)
		}
	}
	for _, b := range workloads.Suite() {
		addProgram(b.Spec.Workload())
	}
	scns, err := scenarios.Profile("all")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range scns {
		addProgram(s.Workload)
	}
	for seed := int64(0); seed < 300; seed++ {
		if m, _, err := vm.GenProgram(seed); err == nil {
			methods = append(methods, m)
		}
		if m, err := vm.GenLoopProgram(seed); err == nil {
			methods = append(methods, m)
		}
		if m, err := vm.GenOSRLoopProgram(seed); err == nil {
			methods = append(methods, m)
		}
	}

	h1, h2 := newTestHeap(t), newTestHeap(t)
	rng := rand.New(rand.NewSource(1))
	var blocks, rewritten, traps int
	for _, m := range methods {
		if len(m.Code) == 0 || bytecode.Verify(m) != nil {
			continue
		}
		ins, err := bytecode.Decode(m.Code)
		if err != nil {
			t.Fatalf("%s: %v", m.Key(), err)
		}
		u, err := jit.Lower(m, ins)
		if err != nil {
			continue // stays on the instrumented loop; nothing to compare
		}
		for bi := range u.Blocks {
			b := &u.Blocks[bi]
			if !b.CanBatch {
				continue
			}
			var canon []jit.Op
			for _, ch := range b.Chunks {
				canon = append(canon, ch.Ops...)
			}
			blocks++
			if len(canon) != len(b.Flat) {
				rewritten++
			}
			for trial := 0; trial < 8; trial++ {
				seed := rng.Int63()
				fr1 := randomState(seed, h1, u.NumSlots)
				fr2 := randomState(seed, h2, u.NumSlots)
				k1 := vm.RunOps(h1, fr1, canon)
				k2 := vm.RunOps(h2, fr2, b.Flat)
				where := func() string { return fmt.Sprintf("%s block @%d", m.Key(), b.Start) }
				trap1, trap2 := int64(-1), int64(-1)
				if k1 >= 0 {
					trap1 = canon[k1].Imm
				}
				if k2 >= 0 {
					trap2 = b.Flat[k2].Imm
				}
				if trap1 != trap2 {
					t.Fatalf("%s: trapping instruction %d (canonical) vs %d (flat)", where(), trap1, trap2)
				}
				live := u.MaxLocals
				if k1 >= 0 {
					traps++
					th1, th2 := vm.TrapThrown(h1, fr1, &canon[k1]), vm.TrapThrown(h2, fr2, &b.Flat[k2])
					if th1.Value != th2.Value || th1.Error() != th2.Error() {
						t.Fatalf("%s: thrown %v vs %v", where(), th1, th2)
					}
				} else {
					live += int(b.Term.SP)
				}
				for s := 0; s < live; s++ {
					if fr1[s] != fr2[s] {
						t.Fatalf("%s (trap %d): slot %d = %d (canonical) vs %d (flat)\ncanonical %+v\nflat %+v",
							where(), trap1, s, fr1[s], fr2[s], canon, b.Flat)
					}
				}
				for hd := int64(1); hd <= int64(len(arrayLens)); hd++ {
					n, _ := h1.Length(hd)
					for i := int64(0); i < n; i++ {
						x, _ := h1.Load(hd, i)
						y, _ := h2.Load(hd, i)
						if x != y {
							t.Fatalf("%s: array %d[%d] = %d vs %d", where(), hd, i, x, y)
						}
					}
				}
			}
		}
	}
	t.Logf("%d methods, %d batchable blocks, %d rewritten, %d trapping trials", len(methods), blocks, rewritten, traps)
	if rewritten == 0 || traps == 0 {
		t.Fatal("the check exercised no rewritten stream or no trap")
	}
}

// arrayLens are the arrays every test heap holds, handles 1 upwards.
var arrayLens = []int64{0, 3, 8}

func newTestHeap(t *testing.T) *vm.Heap {
	h := vm.NewHeap()
	t.Cleanup(h.Release)
	for _, l := range arrayLens {
		if _, err := h.NewArray(l); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// randomState refills h's arrays and returns a frame of n slots, both
// drawn from seed. Slot values mix the heap's handles, small indexes
// (some out of range), zeros and arbitrary words, so array ops and
// divisions both succeed and trap.
func randomState(seed int64, h *vm.Heap, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	for i, l := range arrayLens {
		for j := int64(0); j < l; j++ {
			_ = h.Store(int64(i+1), j, rng.Int63n(100))
		}
	}
	fr := make([]int64, n)
	for s := range fr {
		switch rng.Intn(4) {
		case 0:
			fr[s] = 1 + rng.Int63n(int64(len(arrayLens))+1)
		case 1:
			fr[s] = rng.Int63n(10) - 1
		case 2:
			fr[s] = 0
		default:
			fr[s] = rng.Int63()
		}
	}
	return fr
}

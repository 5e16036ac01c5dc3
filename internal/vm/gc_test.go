package vm

import (
	"testing"

	"repro/internal/bytecode"
	"repro/internal/classfile"
	"repro/internal/jit"
)

// retainClass assembles the long-lived-allocation kernel the generational
// tests run: per call, allocate a holder of depth slots, then count
// arrays of size words each, parking each in holder[k%depth] so a
// rotating window stays live across collections.
func retainClass(t *testing.T, count, size, depth int) *classfile.Class {
	t.Helper()
	a := bytecode.NewAssembler()
	// locals: 0=x, 1=k, 2=holder, 3=tmp
	a.Const(int64(depth))
	a.NewArray()
	a.Store(2)
	a.Const(int64(count))
	a.Store(1)
	top := a.NewLabel()
	end := a.NewLabel()
	a.Bind(top)
	a.Load(1)
	a.Ifle(end)
	a.Const(int64(size))
	a.NewArray()
	a.Store(3)
	a.Load(3)
	a.Const(0)
	a.Load(0)
	a.Load(1)
	a.Add()
	a.AStore()
	a.Load(2)
	a.Load(1)
	a.Const(int64(depth))
	a.Rem()
	a.Load(3)
	a.AStore()
	a.Load(0)
	a.Load(3)
	a.Const(0)
	a.ALoad()
	a.Xor()
	a.Store(0)
	a.Inc(1, -1)
	a.Goto(top)
	a.Bind(end)
	a.Load(0)
	a.IReturn()
	m, err := a.FinishMethod("churn", "(J)J", classfile.AccPublic|classfile.AccStatic, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	return mustClass(t, "gc/Churn", m)
}

// gcOutcome is everything one engine's run of the churn kernel exposes.
type gcOutcome struct {
	ret    int64
	cycles uint64
	instr  uint64
	gtBC   uint64
	gtGC   uint64
	stats  GCStats
}

func runChurn(t *testing.T, cls *classfile.Class, opts Options, invocations int) []gcOutcome {
	t.Helper()
	v := New(opts)
	if err := v.LoadClasses([]*classfile.Class{cls.Clone()}); err != nil {
		t.Fatal(err)
	}
	th := v.NewDetachedThread("gc")
	var outs []gcOutcome
	for i := 0; i < invocations; i++ {
		ret, err := th.InvokeStatic(cls.Name, "churn", "(J)J", int64(i))
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		o := gcOutcome{ret: ret, cycles: th.Cycles(), instr: th.InstructionsExecuted(),
			gtGC: th.GCCycles(), stats: v.GCStats()}
		o.gtBC, _, _ = th.GroundTruth()
		outs = append(outs, o)
	}
	return outs
}

// gcOptions bounds the heap tightly enough that the churn kernel crosses
// every edge: minor collections, tenure promotions, major collections.
func gcOptions() Options {
	o := DefaultOptions()
	o.JITThreshold = 4
	o.CompileThreshold = 3
	o.Heap = HeapConfig{NurseryWords: 96, TenuredWords: 256, TenureAge: 2}
	return o
}

// TestGCCrossEngineIdentity is the generational heap's byte-identity
// contract: with collections running constantly, interpreted frames on
// the block executor, the instrumented loop and the compiled tier agree on every observable —
// results, cycle counters, instruction counts, ground truth (GC cycles
// included) and the full collection ledger.
func TestGCCrossEngineIdentity(t *testing.T) {
	cls := retainClass(t, 24, 16, 8)
	base := gcOptions()

	instOpts := base
	instOpts.ForceInstrumentedLoop = true
	inst := runChurn(t, cls, instOpts, 12)

	fast := runChurn(t, cls, base, 12)

	jitOpts := base
	jitOpts.Tier = jit.EngineJIT
	jitted := runChurn(t, cls, jitOpts, 12)

	last := inst[len(inst)-1]
	if last.stats.Collections() == 0 || last.stats.TenurePromotions == 0 || last.stats.MajorGCs == 0 {
		t.Fatalf("test workload too tame to exercise the collector: %+v", last.stats)
	}
	for i := range inst {
		if fast[i] != inst[i] {
			t.Fatalf("call %d: fast %+v != instrumented %+v", i, fast[i], inst[i])
		}
		if jitted[i] != inst[i] {
			t.Fatalf("call %d: jit %+v != instrumented %+v", i, jitted[i], inst[i])
		}
	}
}

// TestGCPreservesResultsAndCharges: against a legacy (unbounded) run of
// the same program, the collector changes no computed value — it never
// frees a live array — and the entire cycle delta is exactly the charged
// collection pauses.
func TestGCPreservesResultsAndCharges(t *testing.T) {
	cls := retainClass(t, 32, 8, 4)
	legacyOpts := gcOptions()
	legacyOpts.Heap = HeapConfig{}
	legacy := runChurn(t, cls, legacyOpts, 8)
	gc := runChurn(t, cls, gcOptions(), 8)
	for i := range legacy {
		if gc[i].ret != legacy[i].ret {
			t.Fatalf("call %d: result changed under GC: %d vs %d", i, gc[i].ret, legacy[i].ret)
		}
		if gc[i].instr != legacy[i].instr || gc[i].gtBC != legacy[i].gtBC {
			t.Fatalf("call %d: instruction stream perturbed: %+v vs %+v", i, gc[i], legacy[i])
		}
		if gc[i].cycles != legacy[i].cycles+gc[i].gtGC {
			t.Fatalf("call %d: cycle delta %d != charged GC cycles %d",
				i, gc[i].cycles-legacy[i].cycles, gc[i].gtGC)
		}
	}
	last := gc[len(gc)-1]
	if last.stats.Collections() == 0 || last.gtGC == 0 {
		t.Fatalf("collector never ran: %+v", last.stats)
	}
	if last.gtGC != last.stats.GCCycles {
		t.Fatalf("thread GC cycles %d != heap ledger %d", last.gtGC, last.stats.GCCycles)
	}
	if legacy[len(legacy)-1].stats.Collections() != 0 {
		t.Fatal("legacy run collected")
	}
}

// TestGCAllocationEventsFire: the VMObjectAlloc-backing hook sees every
// allocation with its method and code offset, and the GC hook sees every
// pause with survivor attribution, on every engine identically.
func TestGCAllocationEventsFire(t *testing.T) {
	cls := retainClass(t, 24, 16, 4)
	type seen struct {
		allocs     int
		words      int64
		gcs        int
		survArr    uint64
		siteAllocs map[int]int
	}
	run := func(opts Options) seen {
		v := New(opts)
		s := seen{siteAllocs: map[int]int{}}
		v.SetHooks(Hooks{
			Allocation: func(th *Thread, m *Method, at int, words int64, handle int64) {
				s.allocs++
				s.words += words
				if m == nil || m.Name() != "churn" {
					t.Errorf("allocation site method = %v", m)
				}
				s.siteAllocs[at]++
			},
			GC: func(th *Thread, info GCInfo) {
				s.gcs++
				for _, sv := range info.Survivors {
					s.survArr += sv.Arrays
					if sv.Site.Method == nil || sv.Site.Method.Name() != "churn" {
						t.Errorf("survivor site = %+v", sv.Site)
					}
				}
			},
		})
		v.EnableAllocationEvents(true)
		v.EnableGCEvents(true)
		if err := v.LoadClasses([]*classfile.Class{cls.Clone()}); err != nil {
			t.Fatal(err)
		}
		th := v.NewDetachedThread("gc")
		for i := 0; i < 6; i++ {
			if _, err := th.InvokeStatic(cls.Name, "churn", "(J)J", int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	base := gcOptions()
	fast := run(base)
	if fast.allocs != 6*25 { // 24 bursts + 1 holder per call
		t.Fatalf("allocs = %d, want %d", fast.allocs, 6*25)
	}
	if fast.gcs == 0 || fast.survArr == 0 {
		t.Fatalf("no collections/survivors observed: %+v", fast)
	}
	if len(fast.siteAllocs) != 2 {
		t.Fatalf("distinct allocation sites = %d, want holder + burst", len(fast.siteAllocs))
	}
	instOpts := base
	instOpts.ForceInstrumentedLoop = true
	inst := run(instOpts)
	jitOpts := base
	jitOpts.Tier = jit.EngineJIT
	jitted := run(jitOpts)
	if inst.allocs != fast.allocs || inst.gcs != fast.gcs || inst.survArr != fast.survArr {
		t.Fatalf("instrumented events diverged: %+v vs %+v", inst, fast)
	}
	if jitted.allocs != fast.allocs || jitted.gcs != fast.gcs || jitted.survArr != fast.survArr {
		t.Fatalf("jit events diverged: %+v vs %+v", jitted, fast)
	}
}

package vm

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/classfile"
	"repro/internal/jit"
)

// drainArenaFree empties the process-wide free list, so the next heap
// starts from nothing and the one after it adopts exactly the record the
// test parks.
func drainArenaFree() {
	arenaFree.Lock()
	arenaFree.records = nil
	arenaFree.Unlock()
}

// gcEvent is one GCInfo with its sites named, comparable across VMs
// (each VM links its own *Method values).
type gcEvent struct {
	Kind                          GCKind
	Collected, CollectedW         uint64
	Survived, SurvivedW, Promoted uint64
	Cost                          uint64
	Survivors                     []string
}

// replayChurn runs the churn kernel as a VM's main method under the
// scheduler, records every collection, and releases the VM. adopted says
// whether the VM must have started from a parked record.
func replayChurn(t *testing.T, cls *classfile.Class, opts Options, adopted bool) []gcEvent {
	t.Helper()
	v := New(opts)
	if got := cap(v.Heap.markBuf) > 0; got != adopted {
		t.Fatalf("heap adopted a record = %v, want %v", got, adopted)
	}
	if err := v.LoadClasses([]*classfile.Class{cls.Clone()}); err != nil {
		t.Fatal(err)
	}
	var events []gcEvent
	v.EnableGCEvents(true)
	v.SetHooks(Hooks{GC: func(_ *Thread, info GCInfo) {
		e := gcEvent{Kind: info.Kind, Collected: info.CollectedArrays, CollectedW: info.CollectedWords,
			Survived: info.SurvivedArrays, SurvivedW: info.SurvivedWords, Promoted: info.Promoted, Cost: info.Cost}
		for _, s := range info.Survivors {
			e.Survivors = append(e.Survivors,
				fmt.Sprintf("%s@%d:%d/%d", s.Site.Method.FullName(), s.Site.At, s.Arrays, s.Words))
		}
		events = append(events, e)
	}})
	if _, err := v.Run(cls.Name, "churn", "(J)J", 5); err != nil {
		t.Fatal(err)
	}
	if v.GCStats().MajorGCs == 0 {
		t.Fatalf("churn too tame to exercise the collector: %+v", v.GCStats())
	}
	v.Release()
	return events
}

// poisonParkedRecord fills every stale word of the one parked record with
// values that look like live handles and current mark stamps: the
// tables past their length, the arena blocks and the frame arenas.
func poisonParkedRecord(t *testing.T) {
	t.Helper()
	arenaFree.Lock()
	defer arenaFree.Unlock()
	if len(arenaFree.records) != 1 {
		t.Fatalf("%d records parked, want 1", len(arenaFree.records))
	}
	r := &arenaFree.records[0]
	if len(r.frames) == 0 || len(r.blocks) == 0 {
		t.Fatalf("record holds %d frame arenas and %d blocks, want both", len(r.frames), len(r.blocks))
	}
	for i, a := range r.arrays[:cap(r.arrays)] {
		if a != nil {
			t.Fatalf("parked arrays[%d] still references a backing store", i)
		}
	}
	meta := r.meta[:cap(r.meta)]
	for i := range meta {
		meta[i] = arrayMeta{words: 1, survivals: 1, tenured: true}
	}
	alive := r.alive[:cap(r.alive)]
	for i := range alive {
		alive[i] = int32(i)
	}
	mark := r.markBuf[:cap(r.markBuf)]
	for i := range mark {
		mark[i] = uint32(1 + i%4)
	}
	for _, words := range append(append([][]int64{}, r.blocks...), r.frames...) {
		for i := range words {
			words[i] = int64(1 + i%64)
		}
	}
}

// TestRecycledHostMemoryReplaysGC: a GC-heavy program gives the same
// collection stream — kinds, collected and survived counts, promotions,
// costs and per-site survivors — on a VM built from nothing and on one
// that adopted the first VM's released record, even with every stale
// word of that record poisoned to look like a live handle or a current
// mark stamp.
func TestRecycledHostMemoryReplaysGC(t *testing.T) {
	cls := retainClass(t, 400, 16, 8)
	for _, tier := range []jit.Engine{jit.EngineInterp, jit.EngineJIT} {
		t.Run(tier.String(), func(t *testing.T) {
			opts := gcOptions()
			opts.Tier = tier
			drainArenaFree()
			fresh := replayChurn(t, cls, opts, false)
			poisonParkedRecord(t)
			recycled := replayChurn(t, cls, opts, true)
			if len(fresh) != len(recycled) {
				t.Fatalf("%d collections on fresh host memory, %d on recycled", len(fresh), len(recycled))
			}
			for i := range fresh {
				if !reflect.DeepEqual(fresh[i], recycled[i]) {
					t.Fatalf("collection %d differs on recycled host memory:\nfresh    %+v\nrecycled %+v",
						i, fresh[i], recycled[i])
				}
			}
		})
	}
}

// TestRecycledRecordHoldsNoLiveState: a record parked with mark stamps
// >= 1 and an arrays table that held live stores neither makes an old
// handle resolve nor keeps a dead array of the adopting heap alive. The
// adopting heap's first mark generation is 1, so an appended markBuf
// entry that kept its stale stamp would read as marked.
func TestRecycledRecordHoldsNoLiveState(t *testing.T) {
	drainArenaFree()
	cfg := HeapConfig{NurseryWords: 1 << 20}
	var oldRoots []int64
	old := gcHeap(cfg, &oldRoots)
	const n = 300
	for i := 0; i < n; i++ {
		hd, err := old.Alloc(4, Site{At: -1})
		if err != nil {
			t.Fatal(err)
		}
		if err := old.Store(hd, 0, hd); err != nil {
			t.Fatal(err)
		}
		oldRoots = append(oldRoots, hd)
	}
	old.CollectMinor()
	for i := range old.markBuf {
		old.markBuf[i] = 1
	}
	old.Release()

	var roots []int64
	h := gcHeap(cfg, &roots)
	if cap(h.markBuf) < n || cap(h.arrays) < n {
		t.Fatalf("heap did not adopt the parked record (caps %d, %d)", cap(h.markBuf), cap(h.arrays))
	}
	for _, hd := range oldRoots {
		if _, err := h.Load(hd, 0); err == nil {
			t.Fatalf("old handle %d resolves on the adopting heap", hd)
		}
	}
	var handles []int64
	for i := 0; i < n; i++ {
		hd, err := h.Alloc(4, Site{At: -1})
		if err != nil {
			t.Fatal(err)
		}
		// Each array holds its own and its predecessor's handle, the
		// stores the old heap's live arrays held.
		if err := h.Store(hd, 0, hd); err != nil {
			t.Fatal(err)
		}
		if err := h.Store(hd, 1, hd-1); err != nil {
			t.Fatal(err)
		}
		handles = append(handles, hd)
	}
	if info := h.CollectMinor(); info.CollectedArrays != n || info.SurvivedArrays != 0 {
		t.Fatalf("unrooted arrays: collected %d, survived %d, want %d and 0",
			info.CollectedArrays, info.SurvivedArrays, n)
	}
	for _, hd := range handles {
		if _, err := h.Load(hd, 0); err == nil {
			t.Fatalf("collected handle %d still resolves", hd)
		}
	}
}

// heapLifecycle is one heap's host life: made (adopting a parked record
// when there is one), n small allocations filling all four handle
// tables, released.
func heapLifecycle(n int) {
	h := NewHeapWithConfig(HeapConfig{NurseryWords: 1 << 40})
	for i := 0; i < n; i++ {
		if _, err := h.Alloc(4, Site{At: -1}); err != nil {
			panic(err)
		}
	}
	h.Release()
}

// maxLifecycleBytes bounds the host bytes one recycled heap lifecycle
// allocates: the Heap value and its site map. A lifecycle that grows its
// handle tables from zero allocates about 4 MB at n = 20,000.
const maxLifecycleBytes = 4 << 10

// TestHeapLifecycleAllocsFlat: once a record has grown to a cell's size,
// a heap lifecycle costs the same allocations however many arrays it
// makes, and a few KB at most — the handle tables, arena blocks and
// frame arenas come back from the free list instead of growing again.
func TestHeapLifecycleAllocsFlat(t *testing.T) {
	heapLifecycle(20000) // grow one record to the larger size
	cost := func(n int) (allocs, bytes float64) {
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(runs, func() { heapLifecycle(n) })
		runtime.ReadMemStats(&after)
		// AllocsPerRun makes one warm-up call before its timed runs.
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
	}
	smallAllocs, smallBytes := cost(1000)
	bigAllocs, bigBytes := cost(20000)
	t.Logf("per lifecycle: n=1000 %.0f allocs / %.0f B, n=20000 %.0f allocs / %.0f B",
		smallAllocs, smallBytes, bigAllocs, bigBytes)
	if smallAllocs != bigAllocs {
		t.Errorf("allocations per lifecycle grow with the array count: %.0f at n=1000, %.0f at n=20000",
			smallAllocs, bigAllocs)
	}
	if bigBytes >= maxLifecycleBytes {
		t.Errorf("a recycled lifecycle of 20000 arrays allocates %.0f B, want < %d", bigBytes, maxLifecycleBytes)
	}
}

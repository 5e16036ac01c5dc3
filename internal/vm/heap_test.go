package vm

import (
	"testing"
	"testing/quick"
)

func TestHeapNewArrayAndAccess(t *testing.T) {
	h := NewHeap()
	handle, err := h.NewArray(4)
	if err != nil {
		t.Fatal(err)
	}
	if handle == 0 {
		t.Fatal("handle is null")
	}
	if err := h.Store(handle, 2, 99); err != nil {
		t.Fatal(err)
	}
	v, err := h.Load(handle, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v != 99 {
		t.Fatalf("Load = %d, want 99", v)
	}
	n, err := h.Length(handle)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("Length = %d, want 4", n)
	}
}

func TestHeapZeroInitialized(t *testing.T) {
	h := NewHeap()
	handle, _ := h.NewArray(3)
	for i := int64(0); i < 3; i++ {
		v, err := h.Load(handle, i)
		if err != nil {
			t.Fatal(err)
		}
		if v != 0 {
			t.Fatalf("element %d = %d, want 0", i, v)
		}
	}
}

func TestHeapNegativeLengthThrows(t *testing.T) {
	h := NewHeap()
	_, err := h.NewArray(-1)
	th, ok := AsThrown(err)
	if !ok {
		t.Fatalf("err = %v, want Thrown", err)
	}
	if th.Reason != "NegativeArraySizeException" {
		t.Fatalf("reason = %q", th.Reason)
	}
}

func TestHeapNullHandleThrows(t *testing.T) {
	h := NewHeap()
	if _, err := h.Load(0, 0); err == nil {
		t.Fatal("null load accepted")
	}
	if err := h.Store(0, 0, 1); err == nil {
		t.Fatal("null store accepted")
	}
	if _, err := h.Length(0); err == nil {
		t.Fatal("null length accepted")
	}
}

func TestHeapBoundsThrow(t *testing.T) {
	h := NewHeap()
	handle, _ := h.NewArray(2)
	for _, i := range []int64{-1, 2, 100} {
		if _, err := h.Load(handle, i); err == nil {
			t.Fatalf("load index %d accepted", i)
		}
		if err := h.Store(handle, i, 0); err == nil {
			t.Fatalf("store index %d accepted", i)
		}
	}
}

func TestHeapBadHandleThrows(t *testing.T) {
	h := NewHeap()
	if _, err := h.Load(42, 0); err == nil {
		t.Fatal("dangling handle accepted")
	}
}

func TestHeapCount(t *testing.T) {
	h := NewHeap()
	if h.Count() != 0 {
		t.Fatal("fresh heap not empty")
	}
	h.NewArray(1)
	h.NewArray(1)
	if h.Count() != 2 {
		t.Fatalf("Count = %d, want 2", h.Count())
	}
}

// gcHeap builds a collection-enabled heap whose roots are the handles in
// the test-owned roots slice — the unit-test stand-in for the VM's
// thread/static scanner.
func gcHeap(cfg HeapConfig, roots *[]int64) *Heap {
	h := NewHeapWithConfig(cfg)
	h.rootScan = func(visit func(int64)) {
		for _, w := range *roots {
			visit(w)
		}
	}
	return h
}

// TestHeapNurseryBoundaryEdge pins the trigger edge: an allocation that
// lands exactly on the nursery boundary does not collect; the next word
// over does.
func TestHeapNurseryBoundaryEdge(t *testing.T) {
	var roots []int64
	h := gcHeap(HeapConfig{NurseryWords: 64}, &roots)
	if _, err := h.Alloc(60, Site{At: -1}); err != nil {
		t.Fatal(err)
	}
	if h.NeedsMinor(4) {
		t.Fatal("allocation landing exactly on the boundary must not trigger a minor GC")
	}
	if _, err := h.Alloc(4, Site{At: -1}); err != nil {
		t.Fatal(err)
	}
	if h.NurseryUsed() != 64 {
		t.Fatalf("nurseryUsed = %d, want 64", h.NurseryUsed())
	}
	if !h.NeedsMinor(1) {
		t.Fatal("one word past the boundary must trigger a minor GC")
	}
	info := h.CollectMinor()
	if info.CollectedArrays != 2 || h.NurseryUsed() != 0 {
		t.Fatalf("collect: %+v, nurseryUsed %d; want both dead arrays freed", info, h.NurseryUsed())
	}
	if info.Cost != h.Config().GCBaseCost {
		t.Fatalf("cost = %d, want base cost %d for a survivor-free collection", info.Cost, h.Config().GCBaseCost)
	}
}

// TestHeapTenureOnNthSurvival pins the promotion edge: an array tenures
// on exactly its TenureAge-th survival, not before.
func TestHeapTenureOnNthSurvival(t *testing.T) {
	var roots []int64
	h := gcHeap(HeapConfig{NurseryWords: 32, TenureAge: 2}, &roots)
	handle, err := h.Alloc(8, Site{At: -1})
	if err != nil {
		t.Fatal(err)
	}
	roots = append(roots, handle)

	info := h.CollectMinor() // first survival: still nursery
	if info.SurvivedArrays != 1 || info.Promoted != 0 {
		t.Fatalf("first minor: %+v, want 1 survivor, 0 promoted", info)
	}
	if h.TenuredUsed() != 0 || h.NurseryUsed() != 8 {
		t.Fatalf("after first minor: nursery %d tenured %d", h.NurseryUsed(), h.TenuredUsed())
	}
	info = h.CollectMinor() // second survival: tenures
	if info.Promoted != 1 {
		t.Fatalf("second minor: %+v, want promotion on the 2nd survival", info)
	}
	if h.TenuredUsed() != 8 || h.NurseryUsed() != 0 {
		t.Fatalf("after tenure: nursery %d tenured %d, want 0/8", h.NurseryUsed(), h.TenuredUsed())
	}
	if h.Stats().TenurePromotions != 1 {
		t.Fatalf("TenurePromotions = %d", h.Stats().TenurePromotions)
	}
	// A tenured array is out of minor-collection scope entirely: neither
	// collected nor recounted as a survivor.
	info = h.CollectMinor()
	if info.CollectedArrays != 0 || info.SurvivedArrays != 0 {
		t.Fatalf("third minor over tenured array: %+v", info)
	}
	// ...but a major collects it once the root goes away.
	roots = roots[:0]
	info = h.CollectMajor()
	if info.CollectedArrays != 1 || h.TenuredUsed() != 0 {
		t.Fatalf("major: %+v, tenured %d; want the dead tenured array freed", info, h.TenuredUsed())
	}
	if _, err := h.Load(handle, 0); err == nil {
		t.Fatal("load through a collected handle must throw")
	}
}

// TestHeapMarkIsTransitive: an array reachable only through another
// array's contents survives.
func TestHeapMarkIsTransitive(t *testing.T) {
	var roots []int64
	h := gcHeap(HeapConfig{NurseryWords: 16}, &roots)
	inner, _ := h.Alloc(2, Site{At: -1})
	outer, _ := h.Alloc(2, Site{At: -1})
	if err := h.Store(outer, 1, inner); err != nil {
		t.Fatal(err)
	}
	orphan, _ := h.Alloc(2, Site{At: -1})
	roots = append(roots, outer)
	info := h.CollectMinor()
	if info.CollectedArrays != 1 {
		t.Fatalf("collected %d arrays, want only the orphan", info.CollectedArrays)
	}
	if _, err := h.Load(inner, 0); err != nil {
		t.Fatalf("transitively reachable array was collected: %v", err)
	}
	if _, err := h.Load(orphan, 0); err == nil {
		t.Fatal("orphan survived")
	}
}

// TestHeapLegacyModeNeverCollects: the zero config is the historical
// unbounded flat store.
func TestHeapLegacyModeNeverCollects(t *testing.T) {
	h := NewHeap()
	for i := 0; i < 64; i++ {
		if _, err := h.NewArray(1024); err != nil {
			t.Fatal(err)
		}
	}
	if h.NeedsMinor(1<<20) || h.NeedsMajor() {
		t.Fatal("legacy heap asked for a collection")
	}
	st := h.Stats()
	if st.Collections() != 0 || st.AllocatedArrays != 64 || st.LiveArrays() != 64 {
		t.Fatalf("legacy stats: %+v", st)
	}
}

// Property: values stored are the values loaded, across many arrays.
func TestHeapStoreLoadProperty(t *testing.T) {
	f := func(vals []int64) bool {
		if len(vals) == 0 {
			return true
		}
		if len(vals) > 512 {
			vals = vals[:512]
		}
		h := NewHeap()
		handle, err := h.NewArray(int64(len(vals)))
		if err != nil {
			return false
		}
		for i, v := range vals {
			if err := h.Store(handle, int64(i), v); err != nil {
				return false
			}
		}
		for i, v := range vals {
			got, err := h.Load(handle, int64(i))
			if err != nil || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestHeapReleaseRecarvesZero pins the Release contract: a released
// heap's arena blocks go to the free list, its handles turn invalid, and
// every word the next heap carves out of a recycled block reads zero,
// exactly like a block fresh from make.
func TestHeapReleaseRecarvesZero(t *testing.T) {
	sizes := []int64{1, 7, 100, 1000, arenaBlockWords / 4, 3}
	fill := func(h *Heap) []int64 {
		var handles []int64
		for r := 0; r < 40; r++ {
			for _, n := range sizes {
				hd, err := h.NewArray(n)
				if err != nil {
					t.Fatal(err)
				}
				handles = append(handles, hd)
			}
		}
		return handles
	}
	old := NewHeap()
	for _, hd := range fill(old) {
		n, _ := old.Length(hd)
		for i := int64(0); i < n; i++ {
			if err := old.Store(hd, i, -1-i); err != nil {
				t.Fatal(err)
			}
		}
	}
	released := map[*int64]bool{}
	for _, b := range old.blocks {
		released[&b[0]] = true
	}
	if len(released) < 2 {
		t.Fatalf("pattern spans %d arena blocks, want several", len(released))
	}
	old.Release()
	if _, err := old.Load(1, 0); err == nil {
		t.Fatal("released heap still serves its arrays")
	}
	old.Release() // a second Release is a no-op

	h := NewHeap()
	defer h.Release()
	for _, hd := range fill(h) {
		n, _ := h.Length(hd)
		for i := int64(0); i < n; i++ {
			if v, _ := h.Load(hd, i); v != 0 {
				t.Fatalf("handle %d word %d = %d after re-carve, want 0", hd, i, v)
			}
		}
	}
	reused := 0
	for _, b := range h.blocks {
		if released[&b[0]] {
			reused++
		}
	}
	if reused == 0 {
		t.Fatal("the next heap made fresh blocks instead of reusing released ones")
	}
}

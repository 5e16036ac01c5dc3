package vm

import (
	"math/bits"
	"sync"
)

// Heap manages the simulated object store: a generational heap of 64-bit
// word arrays. The workloads need only arrays; handles are opaque non-zero
// int64 values, with 0 playing the role of null.
//
// Generational layout. Allocations land in a bump-pointer *nursery*; a
// *tenured* space holds arrays that survived HeapConfig.TenureAge minor
// collections. An allocation that would push nursery occupancy strictly
// past HeapConfig.NurseryWords triggers a simulated minor collection
// (an allocation landing exactly on the boundary does not); promotions
// that push tenured occupancy strictly past HeapConfig.TenuredWords
// trigger a major collection. The spaces are occupancy ledgers, not host
// memory regions — what the collector frees is the simulated occupancy
// and the backing Go slice; handles stay stable for the arrays that live.
// With NurseryWords == 0 (the default options) collection never runs and
// every observable is byte-identical to the historical flat-store heap.
//
// Liveness is discovered, not modelled: the collector conservatively
// marks every word that could be a handle, starting from the VM's roots —
// each thread's frame locals and the *canonical prefix* of its operand
// stack (see Thread.frames), spawned-thread entry arguments and results,
// and every static field — and tracing transitively through surviving
// array contents. Scanning only the canonical stack prefix is what keeps
// collections byte-identical across execution engines: the template tier
// elides dead operand-stack writes, so slots above the recorded depth may
// legitimately differ between interp and jit and must never influence
// marking. Collections are deferred while any thread is inside native
// code, because handles held in native Go locals are invisible to the
// scan.
//
// The heap is intentionally unsynchronized — the single-baton invariant:
// simulated threads execute one at a time under the cooperative
// scheduler's baton, and the channel handoffs between them establish
// happens-before edges, so all heap accesses within a VM are totally
// ordered. That covers the new spaces too: allocation, occupancy
// accounting, collection (including the cross-thread root scan, which
// reads frames only of parked threads at canonical points) and the GC
// statistics all run on the thread holding the baton. Concurrent VMs
// (the parallel harness) each own a private heap; the one host state
// they share is the mutex-guarded free list of released VMs' host
// memory (see arenaFree), touched only when a heap is made or released.
// This keeps the per-element Load/Store path — one of the interpreter's
// hottest leaves — free of lock traffic.
type Heap struct {
	arrays [][]int64
	meta   []arrayMeta
	cfg    HeapConfig

	// rootScan enumerates every root word for the conservative mark; the
	// VM installs its thread/static scanner, tests may substitute their
	// own. nil disables collection outright.
	rootScan func(visit func(word int64))

	nurseryUsed uint64
	tenuredUsed uint64

	// sites interns allocation sites (method + code offset) so per-array
	// bookkeeping is one int32; survivals are attributed back through it.
	// lastSite/lastSiteID cache the most recent intern: allocation sites
	// repeat in runs (a hot loop allocates from one site), so the common
	// case skips the map hash entirely.
	sites      []Site
	siteIdx    map[Site]int32
	lastSite   Site
	lastSiteID int32

	// pool recycles the host backing stores of collected arrays, bucketed
	// by floor(log2(cap)). Simulated handles are never reused — a stale
	// handle must keep throwing CollectedHandle and handle values are
	// observable — but the Go slices behind them are invisible to the
	// simulation, and reusing them keeps the allocation-heavy workloads
	// off the host allocator and collector. Class c holds caps in
	// [2^c, 2^(c+1)), so popping from class ceil(log2(n)) always yields
	// cap >= n.
	pool [27][][]int64

	// arena bump-allocates small backing stores out of large host blocks
	// when the pool misses. Legacy-mode workloads (collection disabled)
	// allocate hundreds of thousands of small arrays and never free one;
	// carving them from a few big noscan blocks instead of one host
	// allocation each keeps the host allocator and collector out of the
	// simulation's hot path. Sub-slices are three-index sliced, so a
	// store's cap never reaches into its neighbours. blocks lists every
	// block the heap holds, for Release: the first opened were carved
	// (the current one last), the rest came with an adopted record and
	// wait their turn. arenaReused marks a current block from a record,
	// whose carves must be cleared (a block from make is already zero).
	arena       []int64
	blocks      [][]int64
	opened      int
	arenaReused bool

	// frames holds the spare thread frame arenas of an adopted record
	// (see takeFrameArena); VM.Release adds its threads' arenas.
	frames [][]int64

	// alive lists the indexes of uncollected arrays in allocation order;
	// collections sweep this list and compact it in place, so a pause
	// costs O(live + roots), not O(allocated-ever). markBuf is the
	// generation-stamped mark bitmap (markBuf[i] == markGen ⇔ marked in
	// the current collection), persistent so marking allocates nothing.
	alive     []int32
	markBuf   []uint32
	markGen   uint32
	gcScratch []int64 // mark worklist, reused across collections

	stats GCStats
}

// arrayMeta is the per-array generational bookkeeping.
type arrayMeta struct {
	words     uint32
	site      int32 // index into sites, -1 for native allocations
	survivals uint16
	tenured   bool
	dead      bool
}

// HeapConfig sizes the generational heap simulation. The zero value is
// legacy mode: an unbounded flat store that never collects.
type HeapConfig struct {
	// NurseryWords is the nursery occupancy threshold in words; an
	// allocation that would exceed it (strictly) triggers a minor
	// collection first. 0 disables collection entirely (legacy mode).
	NurseryWords uint64
	// TenuredWords is the tenured occupancy threshold; promotions that
	// exceed it (strictly) trigger a major collection. 0 means the
	// tenured space is unbounded (minor collections still run).
	TenuredWords uint64
	// TenureAge is the number of minor collections an array must survive
	// before promotion to the tenured space. 0 means the default (2).
	TenureAge int
	// GCBaseCost is the fixed cycle cost of one collection pause;
	// 0 means the default (600) when collection is enabled.
	GCBaseCost uint64
	// GCWordCost is the cycle cost per surviving word scanned/evacuated;
	// 0 means the default (2) when collection is enabled.
	GCWordCost uint64
	// LimitWords is a hard cap on total live occupancy (nursery +
	// tenured) in words. An allocation that would still exceed it after
	// the collections it triggers throws a catchable simulated
	// OutOfMemoryError — heap exhaustion under a tiny spec fails the
	// run, never the process. 0 means unlimited. Unlike the occupancy
	// thresholds it also applies in legacy mode (no collection), where
	// it simply caps cumulative live allocation.
	LimitWords uint64
}

// Enabled reports whether the configuration turns collection on.
func (c HeapConfig) Enabled() bool { return c.NurseryWords > 0 }

// normalized fills the defaults of an enabled configuration.
func (c HeapConfig) normalized() HeapConfig {
	if !c.Enabled() {
		return c
	}
	if c.TenureAge <= 0 {
		c.TenureAge = 2
	}
	if c.GCBaseCost == 0 {
		c.GCBaseCost = 600
	}
	if c.GCWordCost == 0 {
		c.GCWordCost = 2
	}
	return c
}

// Site identifies an allocation site: a method and the code offset of its
// allocating instruction. Native-code allocations have a nil Method and
// At == -1.
type Site struct {
	Method *Method
	At     int
}

// GCKind distinguishes minor (nursery) from major (full) collections.
type GCKind uint8

const (
	// GCMinor collects the nursery only; survivors age and may tenure.
	GCMinor GCKind = iota
	// GCMajor collects both spaces.
	GCMajor
)

// String names the collection kind.
func (k GCKind) String() string {
	if k == GCMajor {
		return "major"
	}
	return "minor"
}

// SiteSurvival attributes one collection's survivors to an allocation
// site, the raw material of the allocation-profiling agent.
type SiteSurvival struct {
	Site   Site
	Arrays uint64
	Words  uint64
}

// GCInfo describes one finished collection, as delivered to the JVMTI
// GarbageCollection event.
type GCInfo struct {
	Kind            GCKind
	CollectedArrays uint64
	CollectedWords  uint64
	SurvivedArrays  uint64
	SurvivedWords   uint64
	// Promoted counts arrays tenured by this collection (minor only).
	Promoted uint64
	// Cost is the simulated pause cost in cycles, already charged to the
	// triggering thread when the event fires.
	Cost uint64
	// Survivors attributes the surviving arrays to their allocation
	// sites, in first-allocation order (deterministic across engines).
	Survivors []SiteSurvival
}

// GCStats is the heap's cumulative allocation and collection ledger.
// A harness Measurement carries it in the result cache's canonical
// payload, so zero counters are left out of its JSON form.
type GCStats struct {
	AllocatedArrays  uint64 `json:",omitempty"`
	AllocatedWords   uint64 `json:",omitempty"`
	CollectedArrays  uint64 `json:",omitempty"`
	CollectedWords   uint64 `json:",omitempty"`
	MinorGCs         uint64 `json:",omitempty"`
	MajorGCs         uint64 `json:",omitempty"`
	TenurePromotions uint64 `json:",omitempty"`
	// GCCycles is the total simulated collection cost charged to threads.
	GCCycles uint64 `json:",omitempty"`
}

// LiveArrays returns the number of arrays not yet collected.
func (s GCStats) LiveArrays() uint64 { return s.AllocatedArrays - s.CollectedArrays }

// LiveWords returns the words not yet collected.
func (s GCStats) LiveWords() uint64 { return s.AllocatedWords - s.CollectedWords }

// Collections returns the total pause count.
func (s GCStats) Collections() uint64 { return s.MinorGCs + s.MajorGCs }

// Add accumulates another ledger, the aggregation used when one
// measurement spans several VM runs.
func (s *GCStats) Add(o GCStats) {
	s.AllocatedArrays += o.AllocatedArrays
	s.AllocatedWords += o.AllocatedWords
	s.CollectedArrays += o.CollectedArrays
	s.CollectedWords += o.CollectedWords
	s.MinorGCs += o.MinorGCs
	s.MajorGCs += o.MajorGCs
	s.TenurePromotions += o.TenurePromotions
	s.GCCycles += o.GCCycles
}

// NewHeap returns an empty legacy-mode heap (collection disabled).
func NewHeap() *Heap {
	return NewHeapWithConfig(HeapConfig{})
}

// NewHeapWithConfig returns an empty heap under the given configuration.
// Install a root enumerator (the VM does this on construction) before the
// first collection can trigger.
func NewHeapWithConfig(cfg HeapConfig) *Heap {
	h := &Heap{cfg: cfg.normalized(), siteIdx: map[Site]int32{}}
	h.adopt()
	return h
}

// Config returns the heap's (normalized) configuration.
func (h *Heap) Config() HeapConfig { return h.cfg }

// Stats returns the cumulative allocation/collection ledger.
func (h *Heap) Stats() GCStats { return h.stats }

// siteID interns a site.
func (h *Heap) siteID(s Site) int32 {
	if s.Method == nil {
		return -1
	}
	if s == h.lastSite {
		return h.lastSiteID
	}
	id, ok := h.siteIdx[s]
	if !ok {
		id = int32(len(h.sites))
		h.sites = append(h.sites, s)
		h.siteIdx[s] = id
	}
	h.lastSite, h.lastSiteID = s, id
	return id
}

// NewArray allocates a zeroed array of the given length and returns its
// handle. A negative length throws. Allocation through this entry point
// never triggers a collection — the interpreter allocates through
// Thread.newArray, which checks the occupancy thresholds first; direct
// callers (tests, native stubs outside a run) bypass the GC trigger but
// still feed the ledgers.
func (h *Heap) NewArray(length int64) (int64, error) {
	return h.Alloc(length, Site{At: -1})
}

// Alloc is NewArray with an allocation site attached.
func (h *Heap) Alloc(length int64, site Site) (int64, error) {
	if length < 0 {
		return 0, Throw(length, "NegativeArraySizeException")
	}
	const maxLen = 1 << 26
	if length > maxLen {
		return 0, Throw(length, "OutOfMemoryError")
	}
	var a []int64
	if length > 0 {
		if c := bits.Len64(uint64(length - 1)); len(h.pool[c]) > 0 {
			last := len(h.pool[c]) - 1
			a = h.pool[c][last][:length]
			h.pool[c][last] = nil
			h.pool[c] = h.pool[c][:last]
			clear(a)
		} else {
			a = h.arenaAlloc(int(length))
		}
	}
	if a == nil {
		a = make([]int64, length)
	}
	h.arrays = append(h.arrays, a)
	h.meta = append(h.meta, arrayMeta{words: uint32(length), site: h.siteID(site)})
	if h.cfg.Enabled() {
		h.alive = append(h.alive, int32(len(h.arrays)-1))
		h.markBuf = append(h.markBuf, 0)
	}
	h.nurseryUsed += uint64(length)
	h.stats.AllocatedArrays++
	h.stats.AllocatedWords += uint64(length)
	return int64(len(h.arrays)), nil // handle = index + 1
}

// NeedsMinor reports whether allocating need more words would push the
// nursery strictly past its threshold. An allocation landing exactly on
// the boundary does not collect.
func (h *Heap) NeedsMinor(need uint64) bool {
	return h.cfg.Enabled() && h.rootScan != nil && h.nurseryUsed+need > h.cfg.NurseryWords
}

// ExceedsLimit reports whether allocating need more words would push
// live occupancy past the configured hard cap. Callers check it after
// running any due collections, so only genuinely irreducible occupancy
// trips it.
func (h *Heap) ExceedsLimit(need uint64) bool {
	return h.cfg.LimitWords > 0 && h.nurseryUsed+h.tenuredUsed+need > h.cfg.LimitWords
}

// NeedsMajor reports whether tenured occupancy is strictly past its
// threshold.
func (h *Heap) NeedsMajor() bool {
	return h.cfg.Enabled() && h.cfg.TenuredWords > 0 && h.rootScan != nil &&
		h.tenuredUsed > h.cfg.TenuredWords
}

// mark runs the conservative transitive mark, stamping reached arrays
// with the new mark generation. Any root or surviving-array word in
// [1, len(arrays)] is treated as a handle; misidentified integers keep
// garbage alive (safe) but can never free a live array. The scan order
// is irrelevant to the result, so map iteration inside the root
// enumerator cannot perturb determinism. Marking reuses the persistent
// generation-stamped bitmap, so a pause allocates nothing and costs
// O(roots + live data), independent of how much was ever allocated.
func (h *Heap) mark() uint32 {
	h.markGen++
	gen := h.markGen
	work := h.gcScratch[:0]
	visit := func(w int64) {
		if w < 1 || w > int64(len(h.arrays)) {
			return
		}
		idx := w - 1
		if h.markBuf[idx] == gen || h.meta[idx].dead {
			return
		}
		h.markBuf[idx] = gen
		work = append(work, idx)
	}
	h.rootScan(visit)
	for len(work) > 0 {
		idx := work[len(work)-1]
		work = work[:len(work)-1]
		for _, w := range h.arrays[idx] {
			visit(w)
		}
	}
	h.gcScratch = work[:0]
	return gen
}

// CollectMinor runs one minor collection: conservative mark, sweep of
// dead nursery arrays, aging and tenure promotion of the survivors. The
// returned info carries the pause cost; charging it to the triggering
// thread is the caller's job (Thread.runGC).
func (h *Heap) CollectMinor() GCInfo {
	info := GCInfo{Kind: GCMinor}
	gen := h.mark()
	survivors := make(map[int32]int, 8) // site -> Survivors index
	kept := h.alive[:0]
	for _, i := range h.alive {
		m := &h.meta[i]
		if m.tenured {
			kept = append(kept, i)
			continue
		}
		if h.markBuf[i] != gen {
			h.free(int(i), &info)
			continue
		}
		kept = append(kept, i)
		info.SurvivedArrays++
		info.SurvivedWords += uint64(m.words)
		h.surviveSite(m, survivors, &info)
		m.survivals++
		if int(m.survivals) >= h.cfg.TenureAge {
			m.tenured = true
			h.nurseryUsed -= uint64(m.words)
			h.tenuredUsed += uint64(m.words)
			info.Promoted++
			h.stats.TenurePromotions++
		}
	}
	h.alive = kept
	info.Cost = h.cfg.GCBaseCost + h.cfg.GCWordCost*info.SurvivedWords
	h.stats.MinorGCs++
	h.stats.GCCycles += info.Cost
	return info
}

// CollectMajor runs one major collection over both spaces. Survivors keep
// their age; the cost scales with all surviving words.
func (h *Heap) CollectMajor() GCInfo {
	info := GCInfo{Kind: GCMajor}
	gen := h.mark()
	survivors := make(map[int32]int, 8)
	kept := h.alive[:0]
	for _, i := range h.alive {
		m := &h.meta[i]
		if h.markBuf[i] != gen {
			h.free(int(i), &info)
			continue
		}
		kept = append(kept, i)
		info.SurvivedArrays++
		info.SurvivedWords += uint64(m.words)
		h.surviveSite(m, survivors, &info)
	}
	h.alive = kept
	info.Cost = h.cfg.GCBaseCost + h.cfg.GCWordCost*info.SurvivedWords
	h.stats.MajorGCs++
	h.stats.GCCycles += info.Cost
	return info
}

// arenaBlockWords sizes the backing-store arena's host blocks. Requests
// above a quarter block fall back to their own host allocation so one
// array can never strand most of a block.
const arenaBlockWords = 1 << 16

// arenaFree is the process-wide free list of released VMs' host memory,
// one hostRecord per VM. Release parks a finished heap's record here and
// the next heap adopts it whole, so a campaign's cells stop growing
// their handle tables, arena blocks and frame arenas from zero. It needs
// no cap: a heap adopts at most one record and releases at most one, so
// the list never holds more records than heaps were live at once — at
// most the runner's parallelism — and each record holds no more than
// the largest VM that used it. A sync.Pool would not do: the Go
// collector empties pools, and the memory would be made and zeroed
// again.
var arenaFree struct {
	sync.Mutex
	records []hostRecord
}

// hostRecord is one released VM's host memory. The handle tables are
// truncated to length 0; only arrays is cleared (its slices would keep
// dead backing stores reachable), because every appended meta, alive and
// markBuf entry is written before it is read. Arena blocks and frame
// arenas keep their old contents: arenaAlloc clears each carve from a
// reused block, and a frame's slots are written before they are read.
type hostRecord struct {
	arrays  [][]int64
	meta    []arrayMeta
	alive   []int32
	markBuf []uint32
	blocks  [][]int64
	frames  [][]int64
}

// adopt takes a record off the free list, if one is there, into a new
// heap.
func (h *Heap) adopt() {
	arenaFree.Lock()
	n := len(arenaFree.records)
	if n == 0 {
		arenaFree.Unlock()
		return
	}
	r := arenaFree.records[n-1]
	arenaFree.records[n-1] = hostRecord{}
	arenaFree.records = arenaFree.records[:n-1]
	arenaFree.Unlock()
	h.arrays, h.meta, h.alive, h.markBuf = r.arrays, r.meta, r.alive, r.markBuf
	h.blocks, h.frames = r.blocks, r.frames
}

// arenaAlloc carves a zeroed n-word backing store out of the arena,
// opening a block when the current one runs dry (the remainder is
// abandoned — at most one under-quarter-block sliver per block). A block
// comes from the adopted record when it has one left, else from make.
func (h *Heap) arenaAlloc(n int) []int64 {
	if n > arenaBlockWords/4 {
		return make([]int64, n)
	}
	if len(h.arena) < n {
		h.arenaReused = h.opened < len(h.blocks)
		if !h.arenaReused {
			h.blocks = append(h.blocks, make([]int64, arenaBlockWords))
		}
		h.arena = h.blocks[h.opened]
		h.opened++
	}
	a := h.arena[:n:n]
	h.arena = h.arena[n:]
	if h.arenaReused {
		clear(a)
	}
	return a
}

// takeFrameArena returns a frame arena of at least size words for a
// thread of this heap's VM: a spare one from the adopted record if one
// is large enough, else a new one. Its contents are stale; see
// Thread.pushFrameRaw.
func (h *Heap) takeFrameArena(size int) []int64 {
	for i, a := range h.frames {
		if len(a) >= size {
			last := len(h.frames) - 1
			h.frames[i] = h.frames[last]
			h.frames[last] = nil
			h.frames = h.frames[:last]
			return a
		}
	}
	return make([]int64, size)
}

// Release ends the heap's host life: its handle tables, arena blocks and
// spare frame arenas go to the process-wide free list as one record for
// the next heap to adopt, and every handle turns invalid, so no array
// can alias memory another heap now owns. Call it only when nothing
// reads the heap any more — core.Run does, through VM.Release, once its
// VM has finished; callers that keep a VM never do. The statistics stay
// readable; a second Release is a no-op.
func (h *Heap) Release() {
	if cap(h.arrays) > 0 || len(h.blocks) > 0 || len(h.frames) > 0 {
		clear(h.arrays)
		r := hostRecord{
			arrays: h.arrays[:0], meta: h.meta[:0], alive: h.alive[:0], markBuf: h.markBuf[:0],
			blocks: h.blocks, frames: h.frames,
		}
		arenaFree.Lock()
		arenaFree.records = append(arenaFree.records, r)
		arenaFree.Unlock()
	}
	h.arrays, h.meta, h.alive, h.markBuf = nil, nil, nil, nil
	h.arena, h.blocks, h.opened, h.frames = nil, nil, 0, nil
	h.pool = [len(h.pool)][][]int64{}
}

// free reclaims one array: occupancy, ledger, backing storage.
func (h *Heap) free(i int, info *GCInfo) {
	m := &h.meta[i]
	if m.tenured {
		h.tenuredUsed -= uint64(m.words)
	} else {
		h.nurseryUsed -= uint64(m.words)
	}
	m.dead = true
	if a := h.arrays[i]; cap(a) > 0 {
		c := bits.Len64(uint64(cap(a))) - 1
		if len(h.pool[c]) < 1024 {
			h.pool[c] = append(h.pool[c], a[:0])
		}
	}
	h.arrays[i] = nil
	info.CollectedArrays++
	info.CollectedWords += uint64(m.words)
	h.stats.CollectedArrays++
	h.stats.CollectedWords += uint64(m.words)
}

// surviveSite attributes one survivor to its allocation site in the
// info's Survivors list, keeping first-allocation order (survivors are
// visited in handle order, which is allocation order).
func (h *Heap) surviveSite(m *arrayMeta, index map[int32]int, info *GCInfo) {
	if m.site < 0 {
		return
	}
	k, ok := index[m.site]
	if !ok {
		k = len(info.Survivors)
		index[m.site] = k
		info.Survivors = append(info.Survivors, SiteSurvival{Site: h.sites[m.site]})
	}
	info.Survivors[k].Arrays++
	info.Survivors[k].Words += uint64(m.words)
}

// NurseryUsed returns the current nursery occupancy in words.
func (h *Heap) NurseryUsed() uint64 { return h.nurseryUsed }

// TenuredUsed returns the current tenured occupancy in words.
func (h *Heap) TenuredUsed() uint64 { return h.tenuredUsed }

// lookup is the one handle rule every array access goes through: the
// backing store of a live array, nil for a null, invalid or collected
// handle. A nil slot means the collector freed the array (free() is the
// only writer of nil; make never returns it, not even for length 0), so
// the hot leaf stays off the meta table entirely. badHandle names the
// rejection.
func (h *Heap) lookup(handle int64) []int64 {
	if uint64(handle-1) >= uint64(len(h.arrays)) {
		return nil
	}
	return h.arrays[handle-1]
}

// badHandle is the exception for a handle lookup rejected.
func (h *Heap) badHandle(handle int64) *Thrown {
	switch {
	case handle == 0:
		return Throw(0, "NullPointerException")
	case uint64(handle-1) >= uint64(len(h.arrays)):
		return Throw(handle, "InvalidHandle")
	}
	return Throw(handle, "CollectedHandle")
}

// Load returns element i of the array behind handle.
func (h *Heap) Load(handle, i int64) (int64, error) {
	a := h.lookup(handle)
	if a == nil {
		return 0, h.badHandle(handle)
	}
	if uint64(i) >= uint64(len(a)) {
		return 0, Throw(i, "ArrayIndexOutOfBoundsException")
	}
	return a[i], nil
}

// Store writes element i of the array behind handle.
func (h *Heap) Store(handle, i, v int64) error {
	a := h.lookup(handle)
	if a == nil {
		return h.badHandle(handle)
	}
	if uint64(i) >= uint64(len(a)) {
		return Throw(i, "ArrayIndexOutOfBoundsException")
	}
	a[i] = v
	return nil
}

// Length returns the length of the array behind handle.
func (h *Heap) Length(handle int64) (int64, error) {
	a := h.lookup(handle)
	if a == nil {
		return 0, h.badHandle(handle)
	}
	return int64(len(a)), nil
}

// Count returns the number of arrays ever allocated, for tests and
// diagnostics; collected arrays are included (handles are never reused).
func (h *Heap) Count() int {
	return len(h.arrays)
}

// LiveCount returns the number of arrays not yet collected.
func (h *Heap) LiveCount() int {
	return int(h.stats.LiveArrays())
}

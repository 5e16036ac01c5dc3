package jit

import (
	"sync"
	"sync/atomic"
)

// Cache is the compiled-method cache and the home of the relink epoch.
// The VM bumps the epoch on every class load (link-time resolution state
// changed under the compiled code's feet) via Invalidate, which also
// drops every cached unit; the VM's sweep clears the per-method unit
// pointers under the same lock, and a compiled frame that is already
// running captures Epoch() at entry and deoptimizes at its next call
// boundary when the value has moved. Epoch reads are lock-free
// (atomic); the unit map is consulted by tests and the tier-stats
// snapshot, while execution reaches units through the method pointer.
type Cache struct {
	epoch atomic.Uint64

	mu    sync.Mutex
	units map[any]*Unit

	compiled      atomic.Uint64
	failures      atomic.Uint64
	invalidations atomic.Uint64
	inlineSites   atomic.Uint64
}

// NewCache returns an empty cache at epoch 0.
func NewCache() *Cache {
	return &Cache{units: map[any]*Unit{}}
}

// Epoch returns the current relink epoch.
func (c *Cache) Epoch() uint64 { return c.epoch.Load() }

// Invalidate bumps the relink epoch and drops every cached unit,
// returning how many were dropped. Units stamped with an older epoch are
// unusable from the moment the bump is visible, even if a stale pointer
// to one survives elsewhere.
func (c *Cache) Invalidate() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.units)
	if n > 0 {
		c.units = map[any]*Unit{}
		c.invalidations.Add(uint64(n))
	}
	c.epoch.Add(1)
	return n
}

// Put records a freshly compiled unit for key at the current epoch.
func (c *Cache) Put(key any, u *Unit) {
	c.mu.Lock()
	c.units[key] = u
	c.mu.Unlock()
	c.compiled.Add(1)
	c.inlineSites.Add(uint64(len(u.Inlines)))
}

// Get returns the cached unit for key, or nil.
func (c *Cache) Get(key any) *Unit {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.units[key]
}

// Len returns the number of live cached units.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.units)
}

// NoteFailure records a compilation failure (the method stays on the
// interpreter).
func (c *Cache) NoteFailure() { c.failures.Add(1) }

// Stats is the tier's observable bookkeeping, assembled by the VM for the
// CLIs' tier-stats dumps and for tests.
//
// A harness Measurement carries a Stats in the result cache's canonical
// payload, so the JSON form is kept to what a cached cell's readers use:
// every scalar is omitempty (an interp cell's Stats encodes as {}), and
// SuperinstrPairs and PerMethod, which only the -tierstats views render
// straight from the VM, are never encoded.
type Stats struct {
	// Engine is the tier the VM ran with.
	Engine Engine `json:",omitempty"`
	// Epoch is the final relink epoch.
	Epoch uint64 `json:",omitempty"`
	// MethodsCompiled counts units built over the VM's lifetime
	// (recompilations after invalidation count again).
	MethodsCompiled uint64 `json:",omitempty"`
	// CompileFailures counts methods the lowering rejected.
	CompileFailures uint64 `json:",omitempty"`
	// UnitsInvalidated counts units dropped by relink epoch bumps.
	UnitsInvalidated uint64 `json:",omitempty"`
	// UnitsLive is the cache population at snapshot time.
	UnitsLive int `json:",omitempty"`
	// CompiledFrames counts method activations executed by promoted
	// units (inline-expanded calls included); DeoptFrames the promoted
	// activations that left compiled code mid-frame for the instrumented
	// interpreter; FallbackChunks the promoted chunk executions that
	// stepped original bytecode at a yield boundary. Interpreted frames,
	// which run the method's lowering on the same executor, count in
	// none of them.
	CompiledFrames uint64 `json:",omitempty"`
	DeoptFrames    uint64 `json:",omitempty"`
	FallbackChunks uint64 `json:",omitempty"`
	// Tier-2 bookkeeping. InlinedSites counts inline-expanded call sites
	// across every unit built over the VM's lifetime; InlinedCalls the
	// calls actually executed through an inline site; OSREntries the
	// on-stack replacements taken (hot loops promoted mid-iteration);
	// SuperinstrPairs the instructions interpreted frames executed in
	// batches without an op of their own (folded into another
	// instruction's op by the lowering). Promoted frames do not count.
	InlinedSites    uint64 `json:",omitempty"`
	InlinedCalls    uint64 `json:",omitempty"`
	OSREntries      uint64 `json:",omitempty"`
	SuperinstrPairs uint64 `json:"-"`
	// PerMethod is the per-method tier-2 detail for methods with any
	// tier-2 activity, sorted by full name. Filled by the VM's TierStats,
	// not by the cache snapshot.
	PerMethod []MethodStats `json:"-"`
}

// MethodStats is one method's tier-2 bookkeeping for the -tierstats
// surfaces: where inlining happened, which loops OSR promoted, and how
// much of the method's straight-line code the lowering folded away.
type MethodStats struct {
	// Method is the full "Class.name(Desc)" name.
	Method string
	// InlineSites is the number of inline-expanded call sites in the
	// method's current unit (0 while interpreted or invalidated).
	InlineSites int
	// InlinedCalls counts calls this method made through inline sites;
	// OSREntries the on-stack replacements taken in its frames;
	// SuperPairs the instructions its interpreted frames executed in
	// batches without an op of their own.
	InlinedCalls uint64
	OSREntries   uint64
	SuperPairs   uint64
	// FusedPairs and StraightInstrs describe static coverage: of the
	// StraightInstrs instructions in the lowering's pure chunks,
	// FusedPairs lowered to no op of their own — the share the jprof
	// tier-stats view reports.
	FusedPairs     int
	StraightInstrs int
}

// snapshot fills the cache-owned fields of a Stats.
func (c *Cache) snapshot(s *Stats) {
	s.Epoch = c.Epoch()
	s.MethodsCompiled = c.compiled.Load()
	s.CompileFailures = c.failures.Load()
	s.UnitsInvalidated = c.invalidations.Load()
	s.UnitsLive = c.Len()
	s.InlinedSites = c.inlineSites.Load()
}

// Snapshot returns the cache-owned portion of the tier stats.
func (c *Cache) Snapshot() Stats {
	var s Stats
	c.snapshot(&s)
	return s
}

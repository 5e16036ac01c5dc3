package telemetry

// Canonical metric names. Every package that records into the registry
// uses these constants so the -metrics dump, the stderr digest and the
// `jvmsim dashboard` renderer agree on spelling.
const (
	// Per-family counters recorded by the harness and runner.
	MetricCells        = "cells"         // cells completed (any source)
	MetricCellsFailed  = "cells_failed"  // cells that ended in error
	MetricCacheHits    = "cache_hits"    // cells served from the result cache
	MetricDedupHits    = "dedup_hits"    // cells served from in-process memoization
	MetricRuns         = "runs"          // cells actually executed
	MetricVerified     = "verified"      // cache hits re-executed and byte-compared
	MetricRetries      = "retries"       // attempts beyond the first
	MetricTimeouts     = "timeouts"      // attempts killed by the cell deadline
	MetricPanics       = "panics"        // attempts that panicked (isolated)
	MetricFailedEvents = "failed_events" // events recorded for failed cells

	// Per-family counters sourced from the jit.Stats seam of each
	// measurement (cached or executed — tier stats live in the payload).
	MetricTierCompiled    = "tier_methods_compiled"
	MetricTierDeopts      = "tier_deopt_frames"
	MetricTierCompiledFrm = "tier_compiled_frames"
	MetricTierFallback    = "tier_fallback_chunks"

	// Per-family counters sourced from the vm.GCStats seam.
	MetricGCMinor   = "gc_minor"
	MetricGCMajor   = "gc_major"
	MetricGCTenured = "gc_tenure_promotions"

	// Counters recorded by the adversarial scenario search (under the
	// "search" family).
	MetricSearchIterations = "search_iterations" // mutation candidates generated
	MetricSearchEvals      = "search_evals"      // differential leg evaluations
	MetricSearchFindings   = "search_findings"   // divergences found (post-minimization)
	MetricSearchRejected   = "search_rejected"   // candidates rejected by validation

	// Per-family histograms.
	MetricCellWallNanos = "cell_wall_ns"    // host wall time per cell
	MetricQueueWaitNs   = "queue_wait_ns"   // runner submit-to-start wait
	MetricGCPauseCycles = "gc_pause_cycles" // simulated GC cycles per cell

	// Process-family counters (under ProcessFamily) recorded by the
	// result cache, which does not know families.
	MetricProcCacheHits     = "cache_hits"
	MetricProcCacheMisses   = "cache_misses"
	MetricProcCachePuts     = "cache_puts"
	MetricProcCacheDeduped  = "cache_deduped"
	MetricProcCacheEvicted  = "cache_evicted"
	MetricProcCacheVerified = "cache_verified"
)

// Trace span categories, one per layer, so Perfetto can filter by
// subsystem.
const (
	CatCampaign = "campaign" // harness: whole campaign + per-cell work
	CatRunner   = "runner"   // runner: attempts, retries, timeouts
	CatCache    = "cache"    // result cache events
	CatMeasure  = "measure"  // harness: per-repetition measurement spans
)

package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/resultcache"
	"repro/internal/runner"
	"repro/internal/scenarios"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

// Campaign is the generalized measurement matrix: any scenario set × any
// agent set, executed cell by cell on the parallel runner. The paper
// tables are thin presets over it (TableI is the paper profile × the
// none/spa/ipa agent set); every other profile and every scenario file
// runs through the same machinery.
type Campaign struct {
	// Scenarios are the rows of the matrix, in order.
	Scenarios []scenarios.Scenario
	// Agents are the columns: profiling-agent registry names ("none",
	// "spa", "ipa", "sampler", ...). Empty means none/spa/ipa.
	Agents []string
	// Config is the shared measurement configuration. Its Cache is also
	// what makes the campaign crash-resumable: every finished cell is
	// stored under its content-addressed key, so re-running a killed
	// campaign over the same cache serves those cells from disk and
	// renders output byte-identical to an uninterrupted run.
	Config Config
}

// DefaultAgents is the agent set a campaign uses when none is given: the
// three Table I configurations.
func DefaultAgents() []string { return []string{"none", "spa", "ipa"} }

// CampaignRow is one completed cell of the campaign matrix.
type CampaignRow struct {
	Scenario  scenarios.Scenario
	AgentName string
	M         *Measurement
	// Err is the cell's failure after isolation and retries (a
	// *runner.CellError wrapping the cause), set only in graceful mode;
	// M is nil when Err is set.
	Err error
}

// CampaignResult is a finished campaign: every row in matrix order
// (scenario-major, agent-minor) plus the outcome of each scenario's
// expected-value checks.
type CampaignResult struct {
	Rows []CampaignRow
	// CheckFailures lists every violated per-scenario check, one line per
	// violation; empty means all checks passed.
	CheckFailures []string
	// Failed counts rows whose cell failed after retries — a campaign
	// with Failed > 0 is partial and exits with ExitPartial.
	Failed int
}

// CellIdentity is everything that determines one campaign cell's
// Measurement: the scenario content, the agent, the effective VM options
// (cost model, engine, heap after the scenario/flag precedence) and the
// repetition parameters. Its checkpoint.CellKey is the content address
// under which the cell is stored, resumed and deduplicated in the
// persistent result cache: equal keys imply interchangeable
// pure-function evaluations, so a hit skips simulation entirely.
type CellIdentity struct {
	scenarios.Identity
	Agent  string     `json:"agent"`
	Opts   vm.Options `json:"opts"`
	Scale  int        `json:"scale"`
	Runs   int        `json:"runs"`
	Warmup int        `json:"warmup"`
}

// cellIdentity is the identity of the (scenario, agent) cell under cfg.
// The heap precedence (scenario spec applies only when the flags left
// the heap unset) is baked in by applying it to a copy of the options,
// so two campaigns with the same effective heap share keys.
func cellIdentity(sc scenarios.Scenario, agent string, cfg Config) CellIdentity {
	opts := cfg.Opts
	sc.ApplyHeap(&opts)
	return CellIdentity{
		Identity: sc.Identity(),
		Agent:    agent,
		Opts:     opts,
		Scale:    cfg.Scale,
		Runs:     cfg.Runs,
		Warmup:   cfg.Warmup,
	}
}

// cellKey content-addresses the (scenario, agent) cell under cfg.
func cellKey(sc scenarios.Scenario, agent string, cfg Config) (string, error) {
	return checkpoint.CellKey(cellIdentity(sc, agent, cfg))
}

// Run executes the campaign. emit, when non-nil, receives rows in matrix
// order as soon as each row and all rows before it have finished — the
// streaming form a long campaign renders incrementally. The returned
// result always holds the full row set; per-scenario checks are evaluated
// after the matrix completes.
//
// Failure semantics follow Config.FailFast. In the graceful default, a
// cell that still fails after isolation and retries becomes an error row
// (CampaignRow.Err) and the campaign keeps going; Run returns an error
// only for fatal conditions — context cancellation or a rejected
// emission. With FailFast set, the first cell error aborts the
// campaign and is returned, the pre-PR-7 contract the paper presets use.
func (c Campaign) Run(ctx context.Context, emit func(CampaignRow) error) (*CampaignResult, error) {
	cfg := c.Config.normalized()
	agents := c.Agents
	if len(agents) == 0 {
		agents = DefaultAgents()
	}
	var cells []runner.Cell[*Measurement]
	type cellMeta struct {
		sc    scenarios.Scenario
		agent string
	}
	var meta []cellMeta
	// memo is the per-campaign dedup layer: identical cells (equal
	// content keys — overlapping sweeps, repeated scenario × agent pairs)
	// execute exactly once per process, whether they arrive concurrently
	// (singleflight) or in sequence (memoization).
	memo := new(resultcache.Memo)
	for _, sc := range c.Scenarios {
		for _, agent := range agents {
			sc, agent := sc, agent
			key, err := cellKey(sc, agent, cfg)
			if err != nil {
				return nil, err
			}
			cells = append(cells, runner.Cell[*Measurement]{
				Key:   sc.Name() + "/" + agent,
				Group: sc.Family,
				Do: func(ctx context.Context) (*Measurement, error) {
					return c.runCell(ctx, sc, agent, key, cfg, memo)
				},
			})
			meta = append(meta, cellMeta{sc: sc, agent: agent})
		}
	}
	tel := cfg.Telemetry
	if tel != nil {
		// Mirror the cache's counters into the registry's process family
		// for the lifetime of this campaign.
		cfg.Cache.SetTelemetry(tel)
		// The campaign span is a root on its own lane; Stream gets the
		// original context so each worker's attempt spans claim their own
		// lanes instead of stacking on the campaign's track.
		_, span := tel.StartSpan(ctx, telemetry.CatCampaign, "campaign")
		if span != nil {
			span.Arg("cells", len(cells)).Arg("parallelism", cfg.Parallelism)
			defer span.End()
		}
	}
	var emitErr error
	var streamEmit func(runner.Result[*Measurement]) error
	if emit != nil {
		streamEmit = func(r runner.Result[*Measurement]) error {
			row := CampaignRow{Scenario: meta[r.Index].sc, AgentName: meta[r.Index].agent, M: r.Value, Err: r.Err}
			if err := emit(row); err != nil {
				emitErr = err
				return err
			}
			return nil
		}
	}
	results, err := runner.Stream(ctx, cfg.runnerOptions(), cells, streamEmit)
	if emitErr != nil {
		return nil, emitErr
	}
	if cfg.FailFast && err != nil {
		return nil, err
	}
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	res := &CampaignResult{Rows: make([]CampaignRow, len(results))}
	for i, r := range results {
		res.Rows[i] = CampaignRow{Scenario: meta[i].sc, AgentName: meta[i].agent, M: r.Value, Err: r.Err}
		if tel != nil {
			tel.Count(meta[i].sc.Family, telemetry.MetricCells, 1)
		}
		if r.Err != nil {
			res.Failed++
			if tel != nil {
				tel.Count(meta[i].sc.Family, telemetry.MetricCellsFailed, 1)
			}
		}
	}
	for _, sc := range c.Scenarios {
		res.CheckFailures = append(res.CheckFailures, EvaluateChecks(sc, res.Rows, cfg.Scale)...)
	}
	return res, nil
}

// runCell produces one cell's Measurement, cheapest source first:
//
//  1. the persistent result cache — a hit skips simulation entirely,
//     except for the deterministic -cache-verify sample, which
//     re-executes and fails loudly on any byte mismatch,
//  2. memoized execution: identical in-campaign cells run once and
//     share the canonical payload.
//
// Every consumer — leader, dedup follower, cache hit — decodes its
// Measurement from the same canonical JSON payload (the checkpoint codec
// round-trips it bit-exactly), so the rendered output is byte-identical
// no matter which source served the cell. Only
// successful, complete payloads ever reach the cache: a failed attempt
// (panic, timeout, injected fault, exhausted retries) returns before
// Put, and retries re-enter this whole path so a transient failure can
// never publish partial state. Host-side cost (wall time, allocated
// bytes) is measured around whichever path ran and stamped on the
// decoded Measurement — never on the cached payload.
func (c Campaign) runCell(ctx context.Context, sc scenarios.Scenario, agent, key string,
	cfg Config, memo *resultcache.Memo) (*Measurement, error) {
	tel := cfg.Telemetry
	if tel == nil {
		m, _, err := c.runCellFrom(ctx, sc, agent, key, cfg, memo)
		return m, err
	}
	ctx, span := tel.StartSpan(ctx, telemetry.CatCampaign, "cell")
	if span != nil {
		span.Arg("cell", sc.Name()+"/"+agent).Arg("family", sc.Family)
	}
	start := time.Now()
	m, source, err := c.runCellFrom(ctx, sc, agent, key, cfg, memo)
	fam := sc.Family
	tel.Observe(fam, telemetry.MetricCellWallNanos, float64(time.Since(start).Nanoseconds()))
	if span != nil {
		if source != "" {
			span.Arg("source", source)
		}
		span.End()
	}
	if err != nil || m == nil {
		return m, err
	}
	// Attribute the serving source per family (the cache itself only
	// counts process-wide), and read the tier/GC seams off the decoded
	// payload — cached cells carry them too, so the dashboard sees the
	// same tier mix whether the cell ran or was served from disk.
	switch source {
	case "cache":
		tel.Count(fam, telemetry.MetricCacheHits, 1)
	case "dedup":
		tel.Count(fam, telemetry.MetricDedupHits, 1)
	case "verify":
		tel.Count(fam, telemetry.MetricVerified, 1)
	default:
		tel.Count(fam, telemetry.MetricRuns, 1)
	}
	tel.Count(fam, telemetry.MetricTierCompiled, m.Tier.MethodsCompiled)
	tel.Count(fam, telemetry.MetricTierDeopts, m.Tier.DeoptFrames)
	tel.Count(fam, telemetry.MetricTierCompiledFrm, m.Tier.CompiledFrames)
	tel.Count(fam, telemetry.MetricTierInlined, m.Tier.InlinedCalls)
	tel.Count(fam, telemetry.MetricTierFallback, m.Tier.FallbackChunks)
	tel.Count(fam, telemetry.MetricGCMinor, m.GC.MinorGCs)
	tel.Count(fam, telemetry.MetricGCMajor, m.GC.MajorGCs)
	tel.Count(fam, telemetry.MetricGCTenured, m.GC.TenurePromotions)
	if m.GC.Collections() > 0 {
		tel.Observe(fam, telemetry.MetricGCPauseCycles, float64(m.GC.GCCycles))
	}
	return m, nil
}

// runCellFrom is runCell's source-tracking core: it resolves the cell
// through the result cache (resultcache.Cache.Resolve) and returns the
// source that served it ("cache", "verify", "dedup" or "run"),
// meaningful only on success.
func (c Campaign) runCellFrom(ctx context.Context, sc scenarios.Scenario, agent, key string,
	cfg Config, memo *resultcache.Memo) (*Measurement, string, error) {
	var doneHost func(string) core.HostStats
	if cfg.CellStats {
		doneHost = core.StartHostMeasure()
	}
	m := new(Measurement)
	source, err := cfg.Cache.Resolve(memo, key, cfg.CacheVerify, m, func() (json.RawMessage, error) {
		m, err := MeasureScenario(ctx, sc, agent, cfg)
		if err != nil {
			return nil, err
		}
		return checkpoint.CanonicalPayload(m)
	})
	if err != nil {
		return nil, "", err
	}
	if doneHost != nil {
		m.Host = doneHost(source)
	}
	return m, source, nil
}

// EvaluateChecks applies a scenario's expected-value checks to the
// campaign rows that belong to it and returns one line per violation.
// Truth-based bounds read the uninstrumented ("none") row when the agent
// set has one, otherwise the scenario's first row; the IPA overhead bound
// needs both a "none" and an "ipa" row and is skipped otherwise.
//
// Count minimums (MinNativeCalls, MinJNICalls) are declared against the
// scenario's full calibrated size; a scaled campaign run divides the
// workload's iteration count by scale (flooring, minimum one iteration),
// so the bounds are divided the same way — floor, kept at least 1 so the
// check never vanishes — before comparison.
func EvaluateChecks(sc scenarios.Scenario, rows []CampaignRow, scale int) []string {
	if scale < 1 {
		scale = 1
	}
	scaled := func(min uint64) uint64 {
		v := min / uint64(scale)
		if v < 1 {
			v = 1
		}
		return v
	}
	// Rows are visited by index: each carries a whole Scenario, and Run
	// calls this once per scenario, so copying rows would cost S×R
	// struct copies.
	name := sc.Name()
	var base *Measurement
	byAgent := map[string]*Measurement{}
	for i := range rows {
		r := &rows[i]
		if r.M == nil || r.Scenario.Name() != name {
			continue
		}
		if base == nil {
			base = r.M
		}
		if _, dup := byAgent[r.AgentName]; !dup {
			byAgent[r.AgentName] = r.M
		}
	}
	if base == nil {
		return nil
	}
	if m, ok := byAgent["none"]; ok {
		base = m
	}

	ck := sc.Checks
	var fails []string
	fail := func(format string, args ...any) {
		fails = append(fails, fmt.Sprintf("%s: ", sc.Name())+fmt.Sprintf(format, args...))
	}
	nativePct := base.Truth.NativeFraction() * 100
	if ck.MinNativePct > 0 && nativePct < ck.MinNativePct {
		fail("native share %.2f%% below expected minimum %.2f%%", nativePct, ck.MinNativePct)
	}
	if ck.MaxNativePct > 0 && nativePct > ck.MaxNativePct {
		fail("native share %.2f%% above expected maximum %.2f%%", nativePct, ck.MaxNativePct)
	}
	if ck.MinNativeCalls > 0 && base.Truth.NativeMethodCalls < scaled(ck.MinNativeCalls) {
		fail("native method calls %d below expected minimum %d (at scale %d)",
			base.Truth.NativeMethodCalls, scaled(ck.MinNativeCalls), scale)
	}
	if ck.MinJNICalls > 0 && base.Truth.JNICalls < scaled(ck.MinJNICalls) {
		fail("JNI calls %d below expected minimum %d (at scale %d)",
			base.Truth.JNICalls, scaled(ck.MinJNICalls), scale)
	}
	if ck.MinThreads > 0 && base.Threads < ck.MinThreads {
		fail("threads %d below expected minimum %d", base.Threads, ck.MinThreads)
	}
	if ck.MinMinorGCs > 0 && base.GC.MinorGCs < scaled(ck.MinMinorGCs) {
		fail("minor collections %d below expected minimum %d (at scale %d)",
			base.GC.MinorGCs, scaled(ck.MinMinorGCs), scale)
	}
	if ck.MinMajorGCs > 0 && base.GC.MajorGCs < scaled(ck.MinMajorGCs) {
		fail("major collections %d below expected minimum %d (at scale %d)",
			base.GC.MajorGCs, scaled(ck.MinMajorGCs), scale)
	}
	if ck.MaxIPAOverheadPct > 0 {
		none, okN := byAgent["none"]
		ipa, okI := byAgent["ipa"]
		if okN && okI && none.MedianCycles > 0 {
			ovh := (ipa.MedianCycles/none.MedianCycles - 1) * 100
			if ovh > ck.MaxIPAOverheadPct {
				fail("IPA overhead %.2f%% above expected maximum %.2f%%", ovh, ck.MaxIPAOverheadPct)
			}
		}
	}
	return fails
}

// CampaignHeader is the column header matching CampaignRow.String, for
// callers that stream rows as they finish. The GC columns are the
// generational heap's minor/major collection counts; legacy-mode rows
// show zeros.
func CampaignHeader() string {
	return fmt.Sprintf("%-18s %-9s %-16s %14s %10s %9s %11s %10s %7s %7s",
		"scenario", "agent", "family", "cycles", "thpt", "native%", "nat calls", "JNI calls",
		"minorGC", "majorGC")
}

// String renders one campaign row as a fixed-width report line. The
// native share is the agent's measurement when a report exists, the
// ground truth otherwise. Failed cells render an error line in the
// metric columns' place — the scenario/agent/family prefix keeps its
// fixed width so partial tables stay aligned.
func (r CampaignRow) String() string {
	if r.Err != nil {
		return fmt.Sprintf("%-18s %-9s %-16s FAILED: %s",
			r.Scenario.Name(), r.AgentName, r.Scenario.Family, errorLine(r.Err))
	}
	if r.M == nil {
		return fmt.Sprintf("%-18s %-9s (no measurement)", r.Scenario.Name(), r.AgentName)
	}
	m := r.M
	nativePct := m.Truth.NativeFraction() * 100
	if m.Report != nil {
		nativePct = m.Report.NativeFraction() * 100
	}
	return fmt.Sprintf("%-18s %-9s %-16s %14.0f %10.1f %8.2f%% %11d %10d %7d %7d",
		r.Scenario.Name(), r.AgentName, r.Scenario.Family,
		m.MedianCycles, m.MedianThroughput, nativePct,
		m.Truth.NativeMethodCalls, m.Truth.JNICalls,
		m.GC.MinorGCs, m.GC.MajorGCs)
}

// CampaignCellStatsHeader is CampaignHeader extended with the opt-in
// -cellstats columns: host-side wall time, Go-heap allocation and the
// source that served the cell (run, cache, verify, dedup).
// These are simulator telemetry, not simulated values, and vary run to
// run — which is why they live behind the flag instead of in the
// byte-identical default layout.
func CampaignCellStatsHeader() string {
	return fmt.Sprintf("%s %10s %11s %8s", CampaignHeader(), "wall(ms)", "alloc(KB)", "source")
}

// CellStatsString renders the row with the -cellstats columns appended.
// Failed rows keep their FAILED form unchanged — there is no meaningful
// host cost to report for an error row.
func (r CampaignRow) CellStatsString() string {
	if r.Err != nil || r.M == nil {
		return r.String()
	}
	src := r.M.Host.Source
	if src == "" {
		src = "run"
	}
	return fmt.Sprintf("%s %10.3f %11.1f %8s", r.String(),
		float64(r.M.Host.WallNanos)/1e6, float64(r.M.Host.AllocBytes)/1024, src)
}

// errorLine flattens err to a single report line: a cell failure's cause
// can carry embedded newlines (a captured panic message, a wrapped I/O
// chain) that would break the fixed-width table.
func errorLine(err error) string {
	s := err.Error()
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i] + " ..."
	}
	return s
}

// RenderChecks formats the check verdict block of a campaign report.
func RenderChecks(failures []string) string {
	if len(failures) == 0 {
		return "checks: PASS\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "checks: %d FAILED\n", len(failures))
	for _, f := range failures {
		fmt.Fprintf(&b, "  FAIL %s\n", f)
	}
	return b.String()
}

// RenderCampaign formats a campaign result as a plain-text report: one
// row per scenario × agent with the core metrics, then the check verdict.
// Empty campaigns are an error, mirroring the table renderers.
func RenderCampaign(res *CampaignResult) (string, error) {
	if res == nil || len(res.Rows) == 0 {
		return "", fmt.Errorf("harness: campaign produced no rows to render")
	}
	var b strings.Builder
	fmt.Fprintf(&b, "CAMPAIGN RESULTS\n%s\n", CampaignHeader())
	for _, r := range res.Rows {
		fmt.Fprintf(&b, "%s\n", r)
	}
	if res.Failed > 0 {
		fmt.Fprintf(&b, "\npartial: %d of %d cells failed\n", res.Failed, len(res.Rows))
	}
	b.WriteByte('\n')
	b.WriteString(RenderChecks(res.CheckFailures))
	return b.String(), nil
}

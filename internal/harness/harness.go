// Package harness drives the Section V evaluation: it runs every suite
// benchmark uninstrumented, under SPA, and under IPA; aggregates repeated
// runs with the paper's median-of-N rule; computes the overhead formulas;
// and renders Table I (execution time and profiling overhead) and Table II
// (profiling statistics) in the paper's layout.
//
// The campaign is a matrix of measurement cells — benchmark × agent
// configuration — and every cell is an independent VM invocation, so the
// harness executes them on the internal/runner worker pool. Cell results
// are deterministic and returned in submission order, which makes a
// parallel campaign byte-identical to a sequential one (Config.Parallelism
// = 1); only wall-clock time changes.
package harness

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/agents/registry"
	"repro/internal/core"
	"repro/internal/jit"
	"repro/internal/resultcache"
	"repro/internal/runner"
	"repro/internal/scenarios"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// AgentKind selects the profiling configuration of a run.
type AgentKind int

// The three Table I configurations.
const (
	// AgentNone runs without any profiling agent.
	AgentNone AgentKind = iota
	// AgentSPA runs under the Simple Profiling Agent.
	AgentSPA
	// AgentIPA runs under the Improved Profiling Agent.
	AgentIPA
)

// String names the configuration.
func (k AgentKind) String() string {
	switch k {
	case AgentSPA:
		return "SPA"
	case AgentIPA:
		return "IPA"
	default:
		return "original"
	}
}

// registryName maps the kind to its internal/agents/registry name.
func (k AgentKind) registryName() string {
	switch k {
	case AgentSPA:
		return "spa"
	case AgentIPA:
		return "ipa"
	default:
		return "none"
	}
}

// newAgent builds a fresh agent for one run; agents are single-use.
func newAgent(k AgentKind) core.Agent {
	agent, err := registry.New(k.registryName(), registry.Config{})
	if err != nil {
		// The three kinds are always registered; reaching this is a
		// programming error, not a runtime condition.
		panic(err)
	}
	return agent
}

// Config parameterizes an evaluation campaign.
type Config struct {
	// Runs is the number of repetitions whose median is reported. The
	// paper uses 15; the simulator is deterministic, so the median
	// machinery matters only when options vary, but it is preserved for
	// methodological fidelity.
	Runs int
	// Scale divides every benchmark's outer iteration count (1 = the
	// full calibrated size).
	Scale int
	// Parallelism is the number of measurement cells run concurrently,
	// each on its own isolated VM. 1 reproduces the sequential pipeline;
	// values below 1 mean runner.DefaultParallelism(). Output is
	// identical for every value — cells are deterministic and results
	// are assembled in submission order.
	Parallelism int
	// Warmup is the number of discarded repetitions each cell runs
	// before the measured Runs. The simulator is deterministic, so
	// warmup cannot change any simulated value; what it does is exercise
	// the execution tier end to end (class load → hotness → promotion →
	// compiled frames) before measurement and warm the host's own caches
	// and branch predictors, which stabilizes the wall-clock numbers the
	// campaign benchmarks report. Tier-sensitive scenarios run with
	// Warmup >= 1 so their measured repetition is never the one paying
	// host compilation costs.
	Warmup int
	// Opts is the VM cost model and engine selection. Opts.Tier chooses
	// the execution engine for every cell (-engine on the CLIs); all
	// measured simulated values are byte-identical across engines.
	Opts vm.Options
	// FailFast aborts the campaign at the first cell failure instead of
	// degrading gracefully. The paper table presets set it — every cell
	// feeds an overhead formula, so a partial grid is useless — while
	// campaigns default to graceful: a failed cell becomes an error row,
	// the rest of the matrix still runs, and the result reports Failed.
	FailFast bool
	// CellTimeout bounds each attempt of each measurement cell; zero
	// means no deadline. See runner.Options.CellTimeout.
	CellTimeout time.Duration
	// MaxRetries grants extra attempts to cells failing with a transient
	// error. See runner.Options.MaxRetries.
	MaxRetries int
	// Hook is the runner's fault-injection seam, forwarded verbatim
	// (internal/faultinject implements it). Nil injects nothing.
	Hook runner.Hook
	// Cache is the persistent content-addressed result cache; nil (or a
	// nil-opening ModeOff) disables it. A campaign cell whose content
	// key hits the cache skips simulation entirely and decodes the
	// stored canonical payload — byte-identical output either way. See
	// internal/resultcache and docs/caching.md.
	Cache *resultcache.Cache
	// CacheVerify, when positive, re-executes a deterministic 1-in-N
	// sample of cache hits (keyed by content hash, so the sample is
	// stable across runs and parallelism) and fails the cell loudly if
	// the fresh canonical payload differs from the cached bytes.
	CacheVerify int
	// CellStats stamps each cell's Measurement.Host with the host-side
	// cost of producing it (-cellstats on the CLIs). Off by default so
	// the run-varying telemetry never leaks into row comparisons or
	// byte-identity goldens.
	CellStats bool
	// Telemetry, when non-nil, records campaign/cell/repetition spans
	// and per-family metrics (wall time, cache sources, tier and GC
	// counters read from each Measurement's jit.Stats/vm.GCStats seams).
	// Like Host, everything it collects is host-side bookkeeping stamped
	// outside the canonical payloads: output is byte-identical with
	// telemetry on or off. Nil (the default) costs one comparison per
	// cell.
	Telemetry *telemetry.Recorder
}

// DefaultConfig returns the configuration used to regenerate the tables.
func DefaultConfig() Config {
	return Config{Runs: 3, Scale: 1, Parallelism: runner.DefaultParallelism(), Opts: vm.DefaultOptions()}
}

func (c Config) normalized() Config {
	if c.Runs < 1 {
		c.Runs = 1
	}
	if c.Scale < 1 {
		c.Scale = 1
	}
	if c.Parallelism < 1 {
		c.Parallelism = runner.DefaultParallelism()
	}
	if c.Warmup < 0 {
		c.Warmup = 0
	}
	return c
}

// RunnerOptions maps the campaign configuration onto the runner. In
// graceful mode (FailFast unset) failed cells are emitted in order like
// successful ones, so a campaign can render error rows in place.
func (c Config) RunnerOptions() runner.Options {
	return runner.Options{
		Parallelism: c.Parallelism,
		FailFast:    c.FailFast,
		EmitFailed:  !c.FailFast,
		CellTimeout: c.CellTimeout,
		MaxRetries:  c.MaxRetries,
		Hook:        c.Hook,
		Telemetry:   c.Telemetry,
	}
}

// Measurement is the median outcome of repeated runs of one scenario
// under one agent configuration.
type Measurement struct {
	Benchmark string
	// Agent is the Table I configuration for the three preset kinds;
	// AgentName is the registry name and covers every agent a campaign
	// can run.
	Agent     AgentKind
	AgentName string
	// MedianCycles is the median execution time in cycles.
	MedianCycles float64
	// MedianThroughput is the median ops/Mcycles (JBB-style benchmarks).
	MedianThroughput float64
	// Report is the profiling report of the last run (nil for
	// AgentNone).
	Report *core.Report
	// Truth is the ground truth of the last run.
	Truth core.GroundTruth
	// Threads is the largest thread count a run of the measurement
	// created.
	Threads int
	// Runs is the number of repetitions aggregated.
	Runs int
	// GC is the generational heap ledger of the last measured repetition
	// (summed across a warehouse sequence): allocation, collection and
	// pause counts. All zero except the allocation counters when the
	// heap runs unbounded (legacy mode).
	GC vm.GCStats
	// Tier aggregates the execution tier's host-side bookkeeping over
	// the last measured repetition (summed across a warehouse sequence).
	// It never feeds a simulated metric — it exists so campaigns and
	// tests can assert that promotion, deopt and invalidation actually
	// happened under -engine=jit/auto. Per-method rows and the op-free
	// instruction count are not aggregated: only the -tierstats views
	// render them, straight from the VM, and the payload never carries
	// them.
	Tier jit.Stats
	// Host is the host-side cost of producing this measurement (wall
	// time, Go-heap allocation, and whether it came from execution, the
	// cache or an in-process dedup). Excluded from the canonical JSON
	// payload — and therefore from every byte-identity golden — because
	// it varies run to run; campaigns stamp it fresh on every cell,
	// including cached hits (which report their own near-zero cost).
	// Rendered only behind -cellstats.
	Host core.HostStats `json:"-"`
}

// Measure runs one benchmark under one agent configuration cfg.Runs times
// and aggregates with the median. It is one cell of the campaign matrix.
func Measure(b workloads.Benchmark, kind AgentKind, cfg Config) (*Measurement, error) {
	return MeasureContext(context.Background(), b, kind, cfg)
}

// MeasureContext is Measure with cooperative cancellation between VM
// runs; it adapts the legacy suite Benchmark to the scenario form.
func MeasureContext(ctx context.Context, b workloads.Benchmark, kind AgentKind, cfg Config) (*Measurement, error) {
	sc := scenarios.Scenario{
		Family:            "adhoc",
		Workload:          b.Spec.Workload(),
		WarehouseSequence: b.WarehouseSequence,
		Expected:          b.Expected,
	}
	m, err := MeasureScenario(ctx, sc, kind.registryName(), cfg)
	if err != nil {
		return nil, err
	}
	m.Agent = kind
	return m, nil
}

// MeasureScenario runs one scenario under one registry agent cfg.Runs
// times and aggregates with the median — the campaign matrix cell.
// Scenarios with a warehouse sequence (SPEC JBB2005 style) run the whole
// sequence per repetition and aggregate cycles, operations, reports and
// ground truth across it. Agents that need engine support (the sampler's
// sampling interrupt) get their VM-option tuning applied per cell.
func MeasureScenario(ctx context.Context, sc scenarios.Scenario, agentName string, cfg Config) (*Measurement, error) {
	cfg = cfg.normalized()
	w := sc.Workload.Scale(cfg.Scale)
	sequence := sc.WarehouseSequence
	if len(sequence) == 0 {
		sequence = []int{w.Threads}
	}
	opts := cfg.Opts
	registry.TuneOptions(agentName, &opts)
	// A scenario's heap spec applies only when the campaign options left
	// the heap in legacy mode, so a global -heap-nursery flag wins.
	sc.ApplyHeap(&opts)
	var cyclesSamples, throughputSamples []float64
	m := &Measurement{Benchmark: w.Name, AgentName: agentName, Runs: cfg.Runs}
	// Warmup repetitions run the identical cell and discard every sample:
	// determinism makes them simulation-invisible, but they drive the
	// execution tier through its whole promotion pipeline and warm the
	// host before the measured repetitions start.
	for i := 0; i < cfg.Warmup+cfg.Runs; i++ {
		warmup := i < cfg.Warmup
		// The repetition span is pure host-side observability: rctx only
		// adds the trace lane, never a deadline, so execution under
		// telemetry is identical to execution without it.
		rctx, rspan := cfg.Telemetry.StartSpan(ctx, telemetry.CatMeasure, "repetition")
		if rspan != nil {
			rspan.Arg("scenario", sc.Name()).Arg("rep", i).Arg("warmup", warmup)
		}
		var totalCycles, totalOps uint64
		var report *core.Report
		var truth core.GroundTruth
		var tier jit.Stats
		var gc vm.GCStats
		threads := 0
		for _, warehouses := range sequence {
			wv := w
			wv.Threads = warehouses
			prog, err := workloads.BuildWorkload(wv)
			if err != nil {
				rspan.End()
				return nil, fmt.Errorf("harness: %s: %w", wv.Name, err)
			}
			agent, err := registry.New(agentName, registry.Config{})
			if err != nil {
				rspan.End()
				return nil, fmt.Errorf("harness: %s: %w", wv.Name, err)
			}
			res, err := core.RunContext(rctx, prog, agent, opts)
			if err != nil {
				rspan.End()
				return nil, fmt.Errorf("harness: %s under %s: %w", wv.Name, agentName, err)
			}
			totalCycles += res.TotalCycles
			totalOps += res.Ops
			truth.Add(res.Truth)
			gc.Add(res.GC)
			report = stats.MergeReports(report, res.Report)
			if res.Threads > threads {
				threads = res.Threads
			}
			tier.Engine = res.Tier.Engine
			tier.MethodsCompiled += res.Tier.MethodsCompiled
			tier.CompileFailures += res.Tier.CompileFailures
			tier.CompiledFrames += res.Tier.CompiledFrames
			tier.DeoptFrames += res.Tier.DeoptFrames
			tier.FallbackChunks += res.Tier.FallbackChunks
		}
		rspan.End()
		if warmup {
			continue
		}
		cyclesSamples = append(cyclesSamples, float64(totalCycles))
		if totalCycles > 0 {
			throughputSamples = append(throughputSamples,
				float64(totalOps)/(float64(totalCycles)/1e6))
		} else {
			throughputSamples = append(throughputSamples, 0)
		}
		m.Report = report
		m.Truth = truth
		m.Threads = threads
		m.Tier = tier
		m.GC = gc
	}
	var err error
	if m.MedianCycles, err = stats.Median(cyclesSamples); err != nil {
		return nil, err
	}
	if m.MedianThroughput, err = stats.Median(throughputSamples); err != nil {
		return nil, err
	}
	return m, nil
}

// paperCampaign builds the Campaign behind the paper tables: the paper
// profile × the requested Table I agent kinds.
func paperCampaign(cfg Config, kinds []AgentKind) (Campaign, error) {
	suite, err := scenarios.Profile("paper")
	if err != nil {
		return Campaign{}, err
	}
	agents := make([]string, len(kinds))
	for i, k := range kinds {
		agents[i] = k.registryName()
	}
	// Every cell of the paper grid feeds an overhead formula; a partial
	// grid cannot render, so the presets fail fast.
	cfg.FailFast = true
	return Campaign{Scenarios: suite, Agents: agents, Config: cfg}, nil
}

// measureGrid runs one campaign cell per paper benchmark × kind and
// returns the measurements as grid[benchmark][kind-position] together
// with the scenario list actually measured — callers must zip rows
// against that list, not against a fresh Profile lookup, since the
// registry can grow between calls.
func measureGrid(ctx context.Context, cfg Config, kinds []AgentKind) ([]scenarios.Scenario, [][]*Measurement, error) {
	camp, err := paperCampaign(cfg, kinds)
	if err != nil {
		return nil, nil, err
	}
	res, err := camp.Run(ctx, nil)
	if err != nil {
		return nil, nil, err
	}
	grid := make([][]*Measurement, len(camp.Scenarios))
	for i := range camp.Scenarios {
		grid[i] = make([]*Measurement, len(kinds))
		for j, kind := range kinds {
			m := res.Rows[i*len(kinds)+j].M
			m.Agent = kind
			grid[i][j] = m
		}
	}
	return camp.Scenarios, grid, nil
}

// TableIRow is one benchmark's row of Table I.
type TableIRow struct {
	Benchmark string
	// Throughput is true for JBB-style rows, where the metric is
	// operations per Mcycles and the overhead formula inverts.
	Throughput bool

	TimeOriginal float64
	TimeSPA      float64
	TimeIPA      float64

	ThroughputOriginal float64
	ThroughputSPA      float64
	ThroughputIPA      float64

	OverheadSPA float64 // percent
	OverheadIPA float64 // percent

	// Paper columns for side-by-side comparison.
	PaperOverheadSPA float64
	PaperOverheadIPA float64
}

// TableI runs the full Table I campaign: every suite benchmark under the
// three configurations. The returned rows preserve suite order (JVM98
// rows first, then JBB2005) for every parallelism level.
func TableI(cfg Config) ([]TableIRow, error) {
	return TableIContext(context.Background(), cfg)
}

// TableIContext is TableI with cooperative cancellation of the cell pool.
func TableIContext(ctx context.Context, cfg Config) ([]TableIRow, error) {
	cfg = cfg.normalized()
	kinds := []AgentKind{AgentNone, AgentSPA, AgentIPA}
	suite, grid, err := measureGrid(ctx, cfg, kinds)
	if err != nil {
		return nil, err
	}
	var rows []TableIRow
	for i, sc := range suite {
		row := TableIRow{
			Benchmark:        sc.Name(),
			Throughput:       sc.Expected.PaperThroughput > 0,
			PaperOverheadSPA: sc.Expected.PaperSPAOverheadPct,
			PaperOverheadIPA: sc.Expected.PaperIPAOverheadPct,
		}
		ms := grid[i]
		row.TimeOriginal = ms[AgentNone].MedianCycles
		row.TimeSPA = ms[AgentSPA].MedianCycles
		row.TimeIPA = ms[AgentIPA].MedianCycles
		row.ThroughputOriginal = ms[AgentNone].MedianThroughput
		row.ThroughputSPA = ms[AgentSPA].MedianThroughput
		row.ThroughputIPA = ms[AgentIPA].MedianThroughput
		if row.Throughput {
			if row.OverheadSPA, err = stats.OverheadThroughput(row.ThroughputOriginal, row.ThroughputSPA); err != nil {
				return nil, err
			}
			if row.OverheadIPA, err = stats.OverheadThroughput(row.ThroughputOriginal, row.ThroughputIPA); err != nil {
				return nil, err
			}
		} else {
			if row.OverheadSPA, err = stats.OverheadTime(row.TimeOriginal, row.TimeSPA); err != nil {
				return nil, err
			}
			if row.OverheadIPA, err = stats.OverheadTime(row.TimeOriginal, row.TimeIPA); err != nil {
				return nil, err
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// GeoMeanRow aggregates the JVM98 rows (time-metric rows) of Table I with
// the geometric mean, as the paper does. The column math lives in
// internal/stats. Row sets without a time-metric row, or with zero or
// negative cycle measurements, are descriptive errors — the geometric
// mean is undefined for them and would otherwise surface as NaN in the
// rendered table.
func GeoMeanRow(rows []TableIRow) (TableIRow, error) {
	g := TableIRow{Benchmark: "geom. mean"}
	var matrix [][]float64
	for _, r := range rows {
		if r.Throughput {
			continue
		}
		if r.TimeOriginal <= 0 || r.TimeSPA <= 0 || r.TimeIPA <= 0 {
			return g, fmt.Errorf("harness: geometric mean over %q: non-positive cycle measurement (orig=%g spa=%g ipa=%g)",
				r.Benchmark, r.TimeOriginal, r.TimeSPA, r.TimeIPA)
		}
		matrix = append(matrix, []float64{r.TimeOriginal, r.TimeSPA, r.TimeIPA})
	}
	if len(matrix) == 0 {
		return g, fmt.Errorf("harness: geometric mean needs at least one time-metric row (got %d rows, none with the time metric)", len(rows))
	}
	cols, err := stats.GeoMeanColumns(matrix)
	if err != nil {
		return g, fmt.Errorf("harness: geometric mean over %d rows: %w", len(matrix), err)
	}
	g.TimeOriginal, g.TimeSPA, g.TimeIPA = cols[0], cols[1], cols[2]
	if g.OverheadSPA, err = stats.OverheadTime(g.TimeOriginal, g.TimeSPA); err != nil {
		return g, err
	}
	if g.OverheadIPA, err = stats.OverheadTime(g.TimeOriginal, g.TimeIPA); err != nil {
		return g, err
	}
	return g, nil
}

// TableIIRow is one benchmark's row of Table II.
type TableIIRow struct {
	Benchmark         string
	NativePct         float64
	JNICalls          uint64
	NativeMethodCalls uint64
	// Ground-truth and paper columns for comparison.
	TruthNativePct float64
	PaperNativePct float64
}

// TableII runs the Table II campaign: every benchmark under IPA, reporting
// the percentage of native execution and the transition counts. The
// ground-truth column comes from a separate uninstrumented run of the same
// workload: the oracle for agent accuracy must not itself be perturbed by
// the agent's machinery.
func TableII(cfg Config) ([]TableIIRow, error) {
	return TableIIContext(context.Background(), cfg)
}

// TableIIContext is TableII with cooperative cancellation of the cell pool.
func TableIIContext(ctx context.Context, cfg Config) ([]TableIIRow, error) {
	cfg = cfg.normalized()
	suite, grid, err := measureGrid(ctx, cfg, []AgentKind{AgentIPA, AgentNone})
	if err != nil {
		return nil, err
	}
	var rows []TableIIRow
	for i, sc := range suite {
		m, plain := grid[i][0], grid[i][1]
		rows = append(rows, TableIIRow{
			Benchmark:         sc.Name(),
			NativePct:         m.Report.NativeFraction() * 100,
			JNICalls:          m.Report.JNICalls,
			NativeMethodCalls: m.Report.NativeMethodCalls,
			TruthNativePct:    plain.Truth.NativeFraction() * 100,
			PaperNativePct:    sc.Expected.PaperNativePct,
		})
	}
	return rows, nil
}

// validRow rejects the numeric failure modes a table row can carry into
// a render: NaN and infinities from degenerate overhead divisions.
func validRow(benchmark string, vals ...float64) error {
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("harness: row %q holds a non-finite value %g; refusing to render", benchmark, v)
		}
	}
	return nil
}

// RenderTableI formats Table I like the paper, with cycle counts standing
// in for seconds and a throughput row for JBB2005. Empty row sets and
// rows with non-finite values are descriptive errors instead of blank or
// NaN-bearing tables.
func RenderTableI(rows []TableIRow, geo TableIRow) (string, error) {
	if len(rows) == 0 {
		return "", fmt.Errorf("harness: Table I has no rows to render")
	}
	for _, r := range rows {
		if err := validRow(r.Benchmark, r.TimeOriginal, r.TimeSPA, r.TimeIPA,
			r.ThroughputOriginal, r.ThroughputSPA, r.ThroughputIPA,
			r.OverheadSPA, r.OverheadIPA); err != nil {
			return "", err
		}
	}
	if err := validRow(geo.Benchmark, geo.TimeOriginal, geo.TimeSPA, geo.TimeIPA,
		geo.OverheadSPA, geo.OverheadIPA); err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE I: EXECUTION TIME AND PROFILING OVERHEAD FOR SPA AND IPA\n")
	fmt.Fprintf(&b, "%-11s %14s %14s %14s %14s %13s\n",
		"benchmark", "cycles orig", "cycles SPA", "cycles IPA", "overhead SPA", "overhead IPA")
	for _, r := range rows {
		if r.Throughput {
			continue
		}
		fmt.Fprintf(&b, "%-11s %14.0f %14.0f %14.0f %13.2f%% %12.2f%%\n",
			r.Benchmark, r.TimeOriginal, r.TimeSPA, r.TimeIPA, r.OverheadSPA, r.OverheadIPA)
	}
	fmt.Fprintf(&b, "%-11s %14.0f %14.0f %14.0f %13.2f%% %12.2f%%\n",
		geo.Benchmark, geo.TimeOriginal, geo.TimeSPA, geo.TimeIPA, geo.OverheadSPA, geo.OverheadIPA)
	fmt.Fprintf(&b, "\n%-11s %14s %14s %14s %14s %13s\n",
		"benchmark", "thpt orig", "thpt SPA", "thpt IPA", "overhead SPA", "overhead IPA")
	for _, r := range rows {
		if !r.Throughput {
			continue
		}
		fmt.Fprintf(&b, "%-11s %14.1f %14.1f %14.1f %13.2f%% %12.2f%%\n",
			r.Benchmark, r.ThroughputOriginal, r.ThroughputSPA, r.ThroughputIPA,
			r.OverheadSPA, r.OverheadIPA)
	}
	return b.String(), nil
}

// RenderTableII formats Table II like the paper, adding the ground-truth
// and paper columns the simulator makes available. Empty row sets and
// rows with non-finite values are descriptive errors.
func RenderTableII(rows []TableIIRow) (string, error) {
	if len(rows) == 0 {
		return "", fmt.Errorf("harness: Table II has no rows to render")
	}
	for _, r := range rows {
		if err := validRow(r.Benchmark, r.NativePct, r.TruthNativePct, r.PaperNativePct); err != nil {
			return "", err
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE II: PROFILING STATISTICS\n")
	fmt.Fprintf(&b, "%-11s %18s %12s %20s %12s %11s\n",
		"benchmark", "% native execution", "JNI calls", "native method calls", "truth %", "paper %")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-11s %17.2f%% %12d %20d %11.2f%% %10.2f%%\n",
			r.Benchmark, r.NativePct, r.JNICalls, r.NativeMethodCalls,
			r.TruthNativePct, r.PaperNativePct)
	}
	return b.String(), nil
}

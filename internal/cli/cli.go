// Package cli is the command-line surface jvmsim, jprof and tables
// share — this reproduction's form of attaching an agent to a JVM with
// -agentlib:spa|ipa. It works in three steps: Register defines the
// shared flags once, Open turns them into one harness.Config (engine,
// heap, scenario file, fault hook, result cache, telemetry), and Finish
// writes the end-of-run artifacts and trailers. RunCells is the
// rendered-cell loop of jvmsim and jprof. docs/robustness.md ("Shared
// flags") lists the flags.
package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/agents/registry"
	"repro/internal/faultinject"
	"repro/internal/harness"
	"repro/internal/jit"
	"repro/internal/resultcache"
	"repro/internal/runner"
	"repro/internal/scenarios"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

// Flags holds the parsed shared flags of one command and, after Open,
// the configuration and summary its Finish step needs.
type Flags struct {
	tool string
	fs   *flag.FlagSet
	// measure is set for the tools that run measurement cells; `jvmsim
	// search` registers only -scenario, -trace and -metrics.
	measure bool

	// Agent is the -agent name, or tables' comma-separated -agents list.
	Agent string
	// Agents is the validated -agents list; Open sets it for tables.
	Agents   []string
	Engine   string
	Scenario string
	Scale    int

	nursery, tenured, limit uint64
	tenureAge               int
	parallel                int
	cellTimeout             time.Duration
	maxRetries              int
	cacheDir, cacheMode     string
	cacheVerify, cacheMaxMB int
	trace, metrics          string

	loaded []scenarios.Scenario
	cfg    harness.Config
	sum    *telemetry.Summary
}

// Register defines the shared flags of tool on fs: "jvmsim" and
// "jprof" get -agent (default none and ipa), "tables" gets -agents
// (default none,spa,ipa), and "jvmsim search" gets only -scenario,
// -trace and -metrics. The values are valid after fs.Parse.
func Register(fs *flag.FlagSet, tool string) *Flags {
	f := &Flags{tool: tool, fs: fs}
	fs.StringVar(&f.Scenario, "scenario", "",
		"load scenarios from a declarative JSON `file` into the registry")
	fs.StringVar(&f.trace, "trace", "", "write Chrome trace_event JSON to `FILE` (load in Perfetto)")
	fs.StringVar(&f.metrics, "metrics", "", "write the per-family metrics registry as JSON to `FILE`")
	agents := strings.Join(registry.Names(), ", ")
	switch tool {
	case "jvmsim search":
		return f
	case "tables":
		fs.StringVar(&f.Agent, "agents", "none,spa,ipa",
			"comma-separated profiling agents for campaign cells (known: "+agents+")")
	case "jvmsim":
		fs.StringVar(&f.Agent, "agent", "none", "profiling agent: "+agents)
	case "jprof":
		fs.StringVar(&f.Agent, "agent", "ipa", "profiling agent: "+agents)
	default:
		panic("cli: unknown tool " + tool)
	}
	f.measure = true
	fs.StringVar(&f.Engine, "engine", "interp", "execution engine: "+strings.Join(jit.Engines(), ", "))
	fs.Uint64Var(&f.nursery, "heap-nursery", 0,
		"nursery occupancy threshold in `words` that triggers a minor GC (0 = unbounded legacy heap, no collection)")
	fs.Uint64Var(&f.tenured, "heap-tenured", 0,
		"tenured occupancy threshold in `words` that triggers a major GC (0 = unbounded tenured space)")
	fs.IntVar(&f.tenureAge, "heap-tenure-age", 0,
		"minor collections an array must survive before tenuring (0 = default)")
	fs.Uint64Var(&f.limit, "heap-limit", 0,
		"hard cap on live heap occupancy in `words`; exceeding it after collection throws a simulated OutOfMemoryError (0 = unlimited)")
	fs.IntVar(&f.Scale, "scale", 1, "iteration divisor (1 = full calibrated size)")
	fs.IntVar(&f.parallel, "parallel", runner.DefaultParallelism(),
		"measurement cells to run concurrently, each on its own isolated VM (1 = sequential)")
	fs.DurationVar(&f.cellTimeout, "cell-timeout", 0,
		"deadline per measurement cell attempt (0 = no deadline)")
	fs.IntVar(&f.maxRetries, "max-retries", 0,
		"extra attempts for cells that fail with a transient error")
	fs.StringVar(&f.cacheDir, "cache-dir", "",
		"content-addressed result cache directory (default $"+resultcache.EnvVar+")")
	fs.StringVar(&f.cacheMode, "cache", "",
		"result cache mode: off, ro or rw (default rw when a cache directory is configured, off otherwise)")
	fs.IntVar(&f.cacheVerify, "cache-verify", 0,
		"re-execute 1 in N cache hits (deterministic key sample) and fail loudly on any byte mismatch; 0 = off, 1 = every hit")
	fs.IntVar(&f.cacheMaxMB, "cache-max-mb", 0,
		"evict least-recently-used cache entries beyond this many MB at exit (0 = unbounded)")
	return f
}

// Set reports whether the command line set the named flag.
func (f *Flags) Set(name string) bool {
	set := false
	f.fs.Visit(func(fl *flag.Flag) { set = set || fl.Name == name })
	return set
}

// RejectRunFlags fails when the command line set a flag that acts only
// on running cells — -parallel, -cell-timeout, -max-retries, the heap
// flags, the cache flags, -trace or -metrics — for a mode that runs
// none, so the flag is not dropped silently.
func (f *Flags) RejectRunFlags(mode string) error {
	for _, name := range []string{
		"parallel", "cell-timeout", "max-retries",
		"heap-nursery", "heap-tenured", "heap-tenure-age", "heap-limit",
		"cache-dir", "cache", "cache-verify", "cache-max-mb", "trace", "metrics",
	} {
		if f.Set(name) {
			return fmt.Errorf("-%s does not apply to %s (static analyses never run the program)", name, mode)
		}
	}
	return nil
}

// LoadScenarios registers the -scenario file's scenarios, once, and
// returns them; without a file it returns none.
func (f *Flags) LoadScenarios() ([]scenarios.Scenario, error) {
	if f.Scenario == "" || f.loaded != nil {
		return f.loaded, nil
	}
	list, err := scenarios.LoadFile(f.Scenario)
	f.loaded = list
	return list, err
}

// Open validates the flags and opens what they ask for: it loads the
// scenario file, parses the engine and the agent(s), applies the heap
// flags, reads $JVMSIM_FAULTS, opens the result cache and the telemetry
// recorder, and returns the Config every cell runs under. Call Finish
// once the run is done.
func (f *Flags) Open() (harness.Config, error) {
	cfg := harness.DefaultConfig()
	if _, err := f.LoadScenarios(); err != nil {
		return cfg, err
	}
	if f.measure {
		if err := f.configure(&cfg); err != nil {
			return cfg, err
		}
	}
	if f.trace != "" || f.metrics != "" {
		cfg.Telemetry = telemetry.New(f.trace != "")
	}
	cfg.Cache.SetTelemetry(cfg.Telemetry)
	f.cfg = cfg
	f.sum = telemetry.NewSummary(f.tool, os.Stderr)
	return cfg, nil
}

// configure fills cfg from the measurement flags; the cache opens last,
// so a rejected flag never creates or stamps a cache directory.
func (f *Flags) configure(cfg *harness.Config) error {
	engine, err := f.Validate()
	if err != nil {
		return err
	}
	cfg.Opts.Tier = engine
	if f.tool != "tables" {
		registry.TuneOptions(f.Agent, &cfg.Opts)
	}
	if err := f.applyHeap(&cfg.Opts); err != nil {
		return err
	}
	cfg.Scale = f.Scale
	cfg.Parallelism = f.parallel
	cfg.CellTimeout = f.cellTimeout
	cfg.MaxRetries = f.maxRetries
	injector, err := faultinject.FromEnv()
	if err != nil {
		return err
	}
	cfg.Hook = injector.Hook()
	cfg.CacheVerify = f.cacheVerify
	cfg.Cache, err = f.openCache()
	return err
}

// Validate checks -engine and the agent flag the way Open does and
// returns the parsed engine, opening nothing: a mode that runs no cell,
// such as jprof -list, still rejects a bad value. For tables it also
// sets Agents.
func (f *Flags) Validate() (jit.Engine, error) {
	engine, err := jit.ParseEngine(f.Engine)
	if err != nil {
		return engine, err
	}
	if f.tool == "tables" {
		f.Agents, err = registry.ParseList(f.Agent)
		return engine, err
	}
	return engine, registry.Validate(f.Agent)
}

// applyHeap writes the -heap-* flags into o. Tenured or tenure-age flags
// without a bounded nursery are an error: collection triggers only
// through the nursery threshold, so honouring them silently would run a
// configuration the user did not ask for.
func (f *Flags) applyHeap(o *vm.Options) error {
	if f.nursery == 0 {
		if f.tenured > 0 || f.tenureAge > 0 {
			return fmt.Errorf("vm: -heap-tenured/-heap-tenure-age require -heap-nursery > 0 (collection triggers through the nursery threshold)")
		}
		// The hard cap is meaningful without collection: in legacy mode
		// it bounds cumulative live allocation.
		o.Heap.LimitWords = f.limit
		return nil
	}
	o.Heap = vm.HeapConfig{
		NurseryWords: f.nursery,
		TenuredWords: f.tenured,
		TenureAge:    f.tenureAge,
		LimitWords:   f.limit,
	}
	return nil
}

// openCache resolves the cache flags against $JVMSIM_CACHE and opens the
// cache. Precedence: -cache-dir beats $JVMSIM_CACHE; an explicit -cache
// mode beats the dir-presence default; $JVMSIM_CACHE=off disables unless
// a flag re-enables. Returns (nil, nil) when the cache is off.
func (f *Flags) openCache() (*resultcache.Cache, error) {
	dir := f.cacheDir
	env := os.Getenv(resultcache.EnvVar)
	if dir == "" && env != "" && env != "off" {
		dir = env
	}
	modeStr := f.cacheMode
	if modeStr == "" {
		if dir == "" || env == "off" && f.cacheDir == "" {
			modeStr = "off"
		} else {
			modeStr = "rw"
		}
	}
	mode, err := resultcache.ParseMode(modeStr)
	if err != nil {
		return nil, err
	}
	if mode != resultcache.ModeOff && dir == "" {
		return nil, fmt.Errorf("resultcache: -cache=%s needs a directory: set -cache-dir or $%s", mode, resultcache.EnvVar)
	}
	if f.cacheVerify < 0 {
		return nil, fmt.Errorf("resultcache: -cache-verify %d must be >= 0", f.cacheVerify)
	}
	if f.cacheMaxMB < 0 {
		return nil, fmt.Errorf("resultcache: -cache-max-mb %d must be >= 0", f.cacheMaxMB)
	}
	c, err := resultcache.Open(dir, mode)
	if err != nil {
		return nil, err
	}
	if c != nil {
		c.MaxBytes = int64(f.cacheMaxMB) << 20
	}
	return c, nil
}

// Finish is the end-of-run step: the cache's eviction pass and stats
// trailer, then the -trace and -metrics files with their trailers and
// the per-family telemetry digest, all on stderr. Every step runs; the
// first error is reported on stderr and returned, and the command then
// exits fatal (1), because an artifact the user asked for is missing.
func (f *Flags) Finish() error {
	var first error
	fail := func(err error) {
		f.sum.Error(err)
		if first == nil {
			first = err
		}
	}
	if c := f.cfg.Cache; c != nil {
		if _, err := c.Evict(); err != nil {
			fail(err)
		}
		f.sum.Stat(c.Stats())
	}
	tel := f.cfg.Telemetry
	if tel == nil {
		return first
	}
	if f.trace != "" {
		if err := writeFile(f.trace, func(w io.Writer) error { return tel.WriteTrace(w, f.tool) }); err != nil {
			fail(err)
		} else {
			f.sum.Printf("trace: %d events -> %s", tel.EventCount(), f.trace)
		}
	}
	if f.metrics != "" {
		if err := writeFile(f.metrics, func(w io.Writer) error { return tel.WriteMetricsJSON(w, f.tool) }); err != nil {
			fail(err)
		} else {
			f.sum.Printf("metrics: -> %s", f.metrics)
		}
	}
	f.sum.Metrics(tel)
	return first
}

// writeFile creates path, runs fn on it, and returns the first error
// from fn or Close.
func writeFile(path string, fn func(io.Writer) error) error {
	w, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(w); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/agents/registry"
	"repro/internal/classfile"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/jit"
	"repro/internal/jni"
	"repro/internal/jvmti"
	"repro/internal/scenarios"
	"repro/internal/telemetry"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// simCounts are exact counts of the simulation a pass performed, summed
// over the cells it executed.
type simCounts struct {
	cycles       uint64
	instructions uint64
	jniCalls     uint64
	nativeCalls  uint64
	tier         jit.Stats
	gc           vm.GCStats
}

func (c *simCounts) add(o simCounts) {
	c.cycles += o.cycles
	c.instructions += o.instructions
	c.jniCalls += o.jniCalls
	c.nativeCalls += o.nativeCalls
	c.gc.Add(o.gc)
	c.tier.MethodsCompiled += o.tier.MethodsCompiled
	c.tier.CompiledFrames += o.tier.CompiledFrames
	c.tier.DeoptFrames += o.tier.DeoptFrames
	c.tier.InlinedCalls += o.tier.InlinedCalls
	c.tier.OSREntries += o.tier.OSREntries
	c.tier.SuperinstrPairs += o.tier.SuperinstrPairs
}

// passTrace is what a traced pass records into: the benchmark's own
// spans, and the program's telemetry recorder, attached to the harness
// through Config.Telemetry for its runner, harness and cache spans.
type passTrace struct {
	*tracer
	rec *telemetry.Recorder
	ops int
}

// nextOp allocates an op id.
func (t *passTrace) nextOp() int {
	t.ops++
	return t.ops
}

// cellHook is the runner.Hook the benchmark attaches to time cells: the
// interval from a cell's first BeforeAttempt to its AfterCell, in process
// CPU time. With a trace it also records a "cell" span per cell; op < 0
// gives every cell its own op id, otherwise all cells share op.
type cellHook struct {
	tr     *passTrace
	op     int
	parent int

	start time.Duration
	span  int
	keys  []string
	ops   []int
	cpu   []float64 // ns per cell, in completion order
}

func (h *cellHook) BeforeAttempt(ctx context.Context, key string, attempt int) error {
	if attempt > 1 {
		return nil
	}
	op := h.op
	if h.tr != nil && op < 0 {
		op = h.tr.nextOp()
	}
	h.ops = append(h.ops, op)
	if h.tr != nil {
		h.span = h.tr.start("cell", key, op, h.parent)
	}
	h.start = processCPU()
	return nil
}

func (h *cellHook) AfterCell(key string, err error) {
	h.cpu = append(h.cpu, float64(processCPU()-h.start))
	h.keys = append(h.keys, key)
	if h.tr != nil {
		h.tr.end(h.span)
	}
}

// cellName is the runner key of a campaign cell.
func cellName(sc scenarios.Scenario, agent string) string { return sc.Name() + "/" + agent }

// replay re-executes one campaign cell through the public calls
// core.RunKeepVM makes, in the order it makes them, with a span around
// each layer: build (workloads.BuildWorkload), prepare (registry.New,
// OnLoad, PrepareClasses), load (vm.New, jni.Attach, jvmti.NewEnv,
// LoadClasses, LoadLibrary) and run (VM.Run). It follows
// harness.MeasureScenario for one run without warm-up: scaled workload,
// agent option tuning, scenario heap, one VM per warehouse. The caller
// checks the returned cycles against the harness's MedianCycles, so the
// replay cannot drift from the program's own path.
func replay(t *tracer, container string, op, parent int, sc scenarios.Scenario, agent string, cfg harness.Config) (simCounts, error) {
	if cfg.Runs != 1 || cfg.Warmup != 0 {
		return simCounts{}, fmt.Errorf("replay covers one run without warm-up, not runs=%d warmup=%d", cfg.Runs, cfg.Warmup)
	}
	cell := cellName(sc, agent)
	top := t.start(container, cell, op, parent)
	defer t.end(top)
	layer := func(name string, f func() error) error {
		id := t.start(name, cell, op, top)
		err := f()
		t.end(id)
		return err
	}

	w := sc.Workload.Scale(cfg.Scale)
	sequence := sc.WarehouseSequence
	if len(sequence) == 0 {
		sequence = []int{w.Threads}
	}
	opts := cfg.Opts
	registry.TuneOptions(agent, &opts)
	sc.ApplyHeap(&opts)
	var c simCounts
	for _, warehouses := range sequence {
		wv := w
		wv.Threads = warehouses
		var (
			prog    *core.Program
			ag      core.Agent
			v       *vm.VM
			j       *jni.JNI
			env     *jvmti.Env
			classes []*classfile.Class
		)
		fail := func(err error) (simCounts, error) {
			return c, fmt.Errorf("replaying %s: %w", cell, err)
		}
		if err := layer("build", func() (err error) {
			prog, err = workloads.BuildWorkload(wv)
			return err
		}); err != nil {
			return fail(err)
		}
		if err := layer("prepare", func() (err error) {
			ag, err = registry.New(agent, registry.Config{})
			return err
		}); err != nil {
			return fail(err)
		}
		layer("load", func() error {
			v = vm.New(opts)
			j = jni.Attach(v)
			env = jvmti.NewEnv(v, j)
			return nil
		})
		classes = prog.Classes
		if ag != nil {
			if err := layer("prepare", func() error {
				if err := ag.OnLoad(env); err != nil {
					return err
				}
				prepared, err := ag.PrepareClasses(classes)
				classes = prepared
				return err
			}); err != nil {
				return fail(err)
			}
		}
		if err := layer("load", func() error {
			if err := v.LoadClasses(classes); err != nil {
				return err
			}
			for _, lib := range prog.Libraries {
				if err := v.LoadLibrary(lib); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return fail(err)
		}
		if err := layer("run", func() error {
			_, err := v.Run(prog.MainClass, prog.MainName, prog.MainDesc, prog.Args...)
			return err
		}); err != nil {
			return fail(err)
		}
		c.add(simCounts{
			cycles:       v.TotalCycles(),
			instructions: v.InstructionsExecuted(),
			jniCalls:     j.CallCount(),
			nativeCalls:  v.NativeCallCount(),
			tier:         v.TierStats(),
			gc:           v.GCStats(),
		})
	}
	return c, nil
}

// engineName names an engine in replay container names.
func engineName(e jit.Engine) string {
	if e == jit.EngineInterp {
		return "interp"
	}
	return "jit"
}

// cellRef is one cell a pass executed: the op it belongs to and the
// simulated cycles the harness reported for it.
type cellRef struct {
	op     int
	sc     scenarios.Scenario
	agent  string
	cycles float64
}

// replayCells replays cells on cfg's engine, each under a
// "replay.<engine>" span whose layers count toward the per-layer
// metrics, and checks each against the harness's cycles. It then runs
// them all again on the other engine, under "alt.<engine>", for
// jit.speedup; engines are byte-identical, so those runs must simulate
// the same cycles. The two engines run in separate loops so that the
// replay, like the harness, runs one engine's code back to back. It
// returns the counts of the first loop.
func replayCells(t *passTrace, cells []cellRef, cfg harness.Config) (simCounts, error) {
	var total simCounts
	for _, c := range cells {
		got, err := replay(t.tracer, "replay."+engineName(cfg.Opts.Tier), c.op, 0, c.sc, c.agent, cfg)
		if err != nil {
			return total, err
		}
		if float64(got.cycles) != c.cycles {
			return total, fmt.Errorf("%s: replay simulated %d cycles, the harness %.0f", cellName(c.sc, c.agent), got.cycles, c.cycles)
		}
		total.add(got)
	}
	alt := cfg
	alt.Opts.Tier = jit.EngineJIT
	if cfg.Opts.Tier != jit.EngineInterp {
		alt.Opts.Tier = jit.EngineInterp
	}
	for _, c := range cells {
		got, err := replay(t.tracer, "alt."+engineName(alt.Opts.Tier), c.op, 0, c.sc, c.agent, alt)
		if err != nil {
			return total, err
		}
		if float64(got.cycles) != c.cycles {
			return total, fmt.Errorf("%s: %s simulated %d cycles, the harness %.0f", cellName(c.sc, c.agent),
				engineName(alt.Opts.Tier), got.cycles, c.cycles)
		}
	}
	return total, nil
}

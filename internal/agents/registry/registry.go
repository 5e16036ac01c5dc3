// Package registry is the single construction point for the profiling
// agents by name. The cmd/ binaries, the harness and the examples all
// need "agent name → fresh agent" and previously each duplicated the
// switch; this package owns it, together with the VM-option tuning some
// agents require (the sampler needs the engine's sampling interrupt
// enabled).
//
// Agents are single-use: one agent profiles one VM run. New therefore
// returns a freshly constructed agent on every call, which is what makes
// the registry safe for the parallel runner — concurrent cells never
// share agent state.
package registry

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/agents/aprof"
	"repro/internal/agents/bic"
	"repro/internal/agents/ipa"
	"repro/internal/agents/recorder"
	"repro/internal/agents/sampler"
	"repro/internal/agents/spa"
	"repro/internal/core"
	"repro/internal/vm"
)

// Config carries the per-agent options the binaries expose.
type Config struct {
	// PerMethod enables IPA's per-native-method attribution.
	PerMethod bool
}

// entry describes one named agent.
type entry struct {
	make func(Config) core.Agent
	tune func(*vm.Options)
}

var agents = map[string]entry{
	// No agent: an uninstrumented run, ground truth only.
	"none": {make: func(Config) core.Agent { return nil }},
	// The paper's Simple Profiling Agent (MethodEntry/MethodExit events).
	"spa": {make: func(Config) core.Agent { return spa.New() }},
	// The paper's Improved Profiling Agent (transition wrappers, compensated).
	"ipa": {make: func(c Config) core.Agent {
		return ipa.NewWithConfig(ipa.Config{Compensate: true, PerMethod: c.PerMethod})
	}},
	// Mixed Java/native call chains from the method-event calling context tree.
	"chains": {make: func(Config) core.Agent { return recorder.NewChains() }},
	// tprof-style PC-sampling comparator.
	"sampler": {
		make: func(Config) core.Agent { return sampler.New() },
		tune: func(o *vm.Options) {
			o.SampleInterval = 2000
			o.SampleCost = 20
		},
	},
	// Bytecode instruction counter comparator.
	"bic": {make: func(Config) core.Agent { return bic.New() }},
	// Per-method self-cycle profile for scenario record/replay, at no handler cost.
	"recorder": {make: func(Config) core.Agent { return recorder.New() }},
	// Allocation-site profiler (VMObjectAlloc/GarbageCollection events).
	"aprof": {make: func(Config) core.Agent { return aprof.New() }},
}

// Names lists the registered agent names in sorted order.
func Names() []string {
	out := make([]string, 0, len(agents))
	for n := range agents {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// New returns a fresh single-use agent for name. "none" yields a nil
// agent (an uninstrumented run); unknown names are an error.
func New(name string, cfg Config) (core.Agent, error) {
	e, ok := agents[name]
	if !ok {
		return nil, fmt.Errorf("registry: unknown agent %q (known: %v)", name, Names())
	}
	return e.make(cfg), nil
}

// TuneOptions applies the VM-option adjustments an agent needs to
// function (e.g. the sampler's engine-side sampling interrupt). Unknown
// names and agents without tuning are a no-op.
func TuneOptions(name string, opts *vm.Options) {
	if e, ok := agents[name]; ok && e.tune != nil {
		e.tune(opts)
	}
}

// Validate reports whether name is a registered agent.
func Validate(name string) error {
	if _, ok := agents[name]; !ok {
		return fmt.Errorf("registry: unknown agent %q (known: %v)", name, Names())
	}
	return nil
}

// ParseList splits a comma-separated agent list ("none,spa,ipa"),
// validates every entry and rejects duplicates and empty lists.
func ParseList(s string) ([]string, error) {
	var out []string
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		name := strings.TrimSpace(part)
		if name == "" {
			continue
		}
		if err := Validate(name); err != nil {
			return nil, err
		}
		if seen[name] {
			return nil, fmt.Errorf("registry: agent %q listed twice", name)
		}
		seen[name] = true
		out = append(out, name)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("registry: empty agent list")
	}
	return out, nil
}

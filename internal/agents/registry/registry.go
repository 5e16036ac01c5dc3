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
	"repro/internal/agents/chains"
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
	describe string
	make     func(Config) core.Agent
	tune     func(*vm.Options)
}

var agents = map[string]entry{
	"none": {
		describe: "no agent: uninstrumented run, ground truth only",
		make:     func(Config) core.Agent { return nil },
	},
	"spa": {
		describe: "Simple Profiling Agent (MethodEntry/MethodExit events)",
		make:     func(Config) core.Agent { return spa.New() },
	},
	"ipa": {
		describe: "Improved Profiling Agent (transition wrappers, compensated)",
		make: func(c Config) core.Agent {
			return ipa.NewWithConfig(ipa.Config{Compensate: true, PerMethod: c.PerMethod})
		},
	},
	"chains": {
		describe: "IPA extension collecting mixed Java/native call chains",
		make:     func(Config) core.Agent { return chains.New() },
	},
	"sampler": {
		describe: "tprof-style PC-sampling comparator",
		make:     func(Config) core.Agent { return sampler.New() },
		tune: func(o *vm.Options) {
			o.SampleInterval = 2000
			o.SampleCost = 20
		},
	},
	"bic": {
		describe: "bytecode instruction counter comparator",
		make:     func(Config) core.Agent { return bic.New() },
	},
	"recorder": {
		describe: "trace recorder: per-method self-cycle profile for scenario record/replay",
		make:     func(Config) core.Agent { return recorder.New() },
	},
	"aprof": {
		describe: "allocation-site profiler (VMObjectAlloc/GarbageCollection events)",
		make:     func(Config) core.Agent { return aprof.New() },
	},
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

// Describe returns the one-line description of a registered agent, or "".
func Describe(name string) string {
	return agents[name].describe
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

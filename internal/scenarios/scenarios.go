// Package scenarios is the declarative workload registry: every runnable
// scenario — the paper's eight SPEC stand-ins and any number of synthetic
// families — is a named entry holding a phase-composed workload, optional
// paper reference numbers, and per-scenario expected-value checks the
// campaign harness enforces.
//
// The built-in catalogue registers the `paper` profile (the Table I/II
// benchmarks, byte-identical to the pre-registry suite) plus the
// gc-heavy, exception-heavy, deep-chains and contended families. External
// scenario files (see file.go) register additional entries at runtime, so
// a new workload idea is a JSON entry, not a code fork.
package scenarios

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/vm"
	"repro/internal/workloads"
)

// HeapSpec is a scenario's declarative generational-heap sizing: the
// occupancy thresholds its workload needs to actually exercise
// collection. It applies only when the caller's VM options left the heap
// unset (legacy mode), so an explicit -heap-nursery flag always wins.
type HeapSpec struct {
	// NurseryWords is the minor-collection occupancy threshold in words.
	NurseryWords uint64 `json:"nurseryWords"`
	// TenuredWords is the major-collection threshold; 0 = unbounded.
	TenuredWords uint64 `json:"tenuredWords,omitempty"`
	// TenureAge is the survivals before promotion; 0 = the VM default.
	TenureAge int `json:"tenureAge,omitempty"`
	// LimitWords is a hard cap on live occupancy: an allocation that
	// still does not fit after collection throws a catchable simulated
	// OutOfMemoryError, failing the run as a cell rather than thrashing
	// forever. 0 = unlimited.
	LimitWords uint64 `json:"limitWords,omitempty"`
}

// Validate checks the spec for registrability.
func (h HeapSpec) Validate() error {
	if h.NurseryWords == 0 {
		return fmt.Errorf("scenarios: heap spec needs nurseryWords > 0")
	}
	if h.TenureAge < 0 || h.TenureAge > 64 {
		return fmt.Errorf("scenarios: heap spec tenureAge %d out of range [0,64]", h.TenureAge)
	}
	if h.LimitWords > 0 && h.LimitWords < h.NurseryWords {
		return fmt.Errorf("scenarios: heap spec limitWords %d below nurseryWords %d (the nursery could never fill)", h.LimitWords, h.NurseryWords)
	}
	return nil
}

// Config converts the spec to the VM's heap configuration.
func (h HeapSpec) Config() vm.HeapConfig {
	return vm.HeapConfig{
		NurseryWords: h.NurseryWords,
		TenuredWords: h.TenuredWords,
		TenureAge:    h.TenureAge,
		LimitWords:   h.LimitWords,
	}
}

// ApplyHeap resolves the heap configuration for one run of the scenario:
// options that already size the heap win; otherwise the scenario's spec
// (if any) applies. Shared by the harness and the run-one CLIs so a
// scenario behaves identically everywhere.
func (s Scenario) ApplyHeap(opts *vm.Options) {
	if opts.Heap.Enabled() || s.Heap == nil {
		return
	}
	opts.Heap = s.Heap.Config()
}

// Checks are the per-scenario expected-value assertions the campaign
// harness evaluates after measuring a scenario. Zero values disable a
// check, so a scenario declares only the properties it guarantees.
type Checks struct {
	// MinNativePct / MaxNativePct bound the ground-truth native share of
	// execution, in percent. MaxNativePct == 0 means unbounded.
	MinNativePct float64 `json:"minNativePct,omitempty"`
	MaxNativePct float64 `json:"maxNativePct,omitempty"`
	// MinNativeCalls / MinJNICalls are lower bounds on the ground-truth
	// transition counts, declared at the scenario's full calibrated size;
	// scaled campaign runs divide the bounds by the scale factor to
	// match the shrunken workload.
	MinNativeCalls uint64 `json:"minNativeCalls,omitempty"`
	MinJNICalls    uint64 `json:"minJNICalls,omitempty"`
	// MinThreads is a lower bound on the threads the run created.
	MinThreads int `json:"minThreads,omitempty"`
	// MaxIPAOverheadPct bounds IPA's overhead versus the uninstrumented
	// run, in percent; it is checked only when the campaign's agent set
	// includes both.
	MaxIPAOverheadPct float64 `json:"maxIPAOverheadPct,omitempty"`
	// MinMinorGCs / MinMajorGCs are lower bounds on the collection
	// counts of the uninstrumented run, declared at the scenario's full
	// calibrated size and divided by the campaign scale like the
	// transition-count minimums. They only make sense on scenarios whose
	// heap spec (or the caller's -heap flags) bounds the relevant space.
	MinMinorGCs uint64 `json:"minMinorGCs,omitempty"`
	MinMajorGCs uint64 `json:"minMajorGCs,omitempty"`
}

// Validate checks the bounds for consistency.
func (c Checks) Validate() error {
	if c.MinNativePct < 0 || c.MaxNativePct < 0 || c.MaxIPAOverheadPct < 0 || c.MinThreads < 0 {
		return fmt.Errorf("scenarios: negative check bound")
	}
	if c.MaxNativePct > 0 && c.MinNativePct > c.MaxNativePct {
		return fmt.Errorf("scenarios: minNativePct %.2f above maxNativePct %.2f",
			c.MinNativePct, c.MaxNativePct)
	}
	return nil
}

// Scenario is one registered workload with its measurement metadata.
type Scenario struct {
	// Family groups scenarios into profiles ("paper", "gc-heavy", ...).
	Family string
	// Workload is the phase-composed program description.
	Workload workloads.Workload
	// WarehouseSequence, when non-empty, runs the workload once per entry
	// with Threads set to the entry value and aggregates the results —
	// the paper's SPEC JBB2005 protocol. Empty means a single run.
	WarehouseSequence []int
	// Expected holds the paper's Table I/II reference row; zero for
	// scenarios outside the paper profile.
	Expected workloads.Expected
	// Checks are the expected-value assertions the campaign enforces.
	Checks Checks
	// Heap, when non-nil, sizes the generational heap for runs of this
	// scenario whose options left the heap in legacy mode (see
	// ApplyHeap). The gcpressure family uses it to guarantee nonzero
	// collection counts without a global flag.
	Heap *HeapSpec
	// Pins, when non-nil, are byte-exact expected observables recorded
	// from a canonical run (see pins.go); recorded and found scenarios
	// carry them so replays can assert exact reproduction. Pins are
	// deliberately not part of Identity — re-recording them must not
	// invalidate cached cells.
	Pins *Pins
}

// Name returns the scenario's workload name, its registry key.
func (s Scenario) Name() string { return s.Workload.Name }

// Identity is the scenario-content fragment of a cell's content address:
// the name plus the full workload description and warehouse sequence, so
// two scenarios that share a name but differ in content (a re-edited
// -scenario file, a registry change between releases) can never collide
// in the result cache. Cell keys embed it next to the agent/options/scale
// fragment; its field names and kinds are part of the key derivation, so
// renaming one moves every key.
type Identity struct {
	Scenario string             `json:"scenario"`
	Workload workloads.Workload `json:"workload"`
	Sequence []int              `json:"sequence,omitempty"`
}

// Identity returns the scenario's content-identity fragment.
func (s Scenario) Identity() Identity {
	return Identity{Scenario: s.Name(), Workload: s.Workload, Sequence: s.WarehouseSequence}
}

// Validate checks the scenario for registrability.
func (s Scenario) Validate() error {
	if s.Family == "" {
		return fmt.Errorf("scenarios: %s: empty family", s.Workload.Name)
	}
	if err := s.Workload.Validate(); err != nil {
		return err
	}
	for _, w := range s.WarehouseSequence {
		if w < 1 || w > 64 {
			return fmt.Errorf("scenarios: %s: warehouse count %d out of range", s.Name(), w)
		}
	}
	if err := s.Checks.Validate(); err != nil {
		return fmt.Errorf("scenarios: %s: %w", s.Name(), err)
	}
	if s.Heap != nil {
		if err := s.Heap.Validate(); err != nil {
			return fmt.Errorf("scenarios: %s: %w", s.Name(), err)
		}
	}
	if s.Pins != nil {
		if err := s.Pins.Validate(); err != nil {
			return fmt.Errorf("scenarios: %s: %w", s.Name(), err)
		}
	}
	return nil
}

// registry holds the scenarios in registration order; the order is the
// deterministic iteration order of profiles and "all".
var registry = struct {
	sync.RWMutex
	order []string
	byKey map[string]Scenario
}{byKey: map[string]Scenario{}}

// Register adds a scenario under its workload name. Duplicate names and
// invalid scenarios are errors.
func Register(s Scenario) error {
	return RegisterAll([]Scenario{s})
}

// RegisterAll registers a batch atomically: every scenario is validated
// and checked against the registry before any is added, so a failed load
// never leaves a half-registered file behind.
func RegisterAll(list []Scenario) error {
	for _, s := range list {
		if err := s.Validate(); err != nil {
			return err
		}
	}
	registry.Lock()
	defer registry.Unlock()
	seen := map[string]bool{}
	for _, s := range list {
		if _, dup := registry.byKey[s.Name()]; dup || seen[s.Name()] {
			return fmt.Errorf("scenarios: duplicate scenario %q", s.Name())
		}
		seen[s.Name()] = true
	}
	for _, s := range list {
		registry.order = append(registry.order, s.Name())
		registry.byKey[s.Name()] = s
	}
	return nil
}

// mustRegister registers a built-in scenario; a failure is a programming
// error in the catalogue, not a runtime condition.
func mustRegister(s Scenario) {
	if err := Register(s); err != nil {
		panic(err)
	}
}

// Get returns the scenario registered under name.
func Get(name string) (Scenario, error) {
	registry.RLock()
	defer registry.RUnlock()
	s, ok := registry.byKey[name]
	if !ok {
		return Scenario{}, fmt.Errorf("scenarios: unknown scenario %q (known: %v)", name, namesLocked())
	}
	return s, nil
}

// Names lists every registered scenario in registration order.
func Names() []string {
	registry.RLock()
	defer registry.RUnlock()
	return namesLocked()
}

func namesLocked() []string {
	return append([]string(nil), registry.order...)
}

// Families lists the distinct scenario families, sorted.
func Families() []string {
	registry.RLock()
	defer registry.RUnlock()
	return familiesLocked()
}

// familiesLocked is Families with the registry lock already held; error
// paths inside locked sections must use it — sync.RWMutex forbids
// recursive read-locking.
func familiesLocked() []string {
	seen := map[string]bool{}
	for _, n := range registry.order {
		seen[registry.byKey[n].Family] = true
	}
	out := make([]string, 0, len(seen))
	for f := range seen {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// Profile resolves a profile name to its member scenarios in registration
// order: a family name selects that family, "all" selects everything.
func Profile(name string) ([]Scenario, error) {
	registry.RLock()
	defer registry.RUnlock()
	var out []Scenario
	for _, n := range registry.order {
		s := registry.byKey[n]
		if name == "all" || s.Family == name {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("scenarios: unknown profile %q (known: all, %v)", name, familiesLocked())
	}
	return out, nil
}

// Resolve maps a mixed list of scenario names, family names and the word
// "all" to scenarios, preserving argument order and expanding profiles in
// registration order.
func Resolve(names []string) ([]Scenario, error) {
	var out []Scenario
	for _, n := range names {
		if s, err := Get(n); err == nil {
			out = append(out, s)
			continue
		}
		group, err := Profile(n)
		if err != nil {
			return nil, fmt.Errorf("scenarios: %q is neither a scenario nor a profile (scenarios: %v; profiles: all, %v)",
				n, Names(), Families())
		}
		out = append(out, group...)
	}
	return out, nil
}

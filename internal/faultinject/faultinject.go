// Package faultinject provides deterministic, seeded fault injectors for
// the campaign runner: panic-in-cell, delay-past-deadline,
// transient-error-then-succeed, and crash-between-cells. An Injector
// implements runner.Hook — the runner's build-tag-free injection seam —
// so the robustness tests (and the kill-mid-campaign integration tests
// driving the built binaries) exercise isolation, retry, timeout and
// resume against the real execution machinery rather than mocks.
//
// Determinism is the point: every injector decision is a pure function
// of (seed, cell key, attempt), so a failing fault scenario replays
// identically under `go test -race -count=N` and a crash-resume proof
// can assert byte-identical output. The JVMSIM_FAULTS environment
// variable (parsed by FromEnv) carries fault specs across an exec
// boundary into the built binaries:
//
//	JVMSIM_FAULTS="crash-after=3" jvmsim -cache-dir c all
//	JVMSIM_FAULTS="panic=compress;transient=jess:2" tables -profile paper
package faultinject

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/runner"
)

// Kind enumerates the injectable faults.
type Kind int

const (
	// Panic panics inside the cell attempt — recovered by the runner
	// into a CellError with a captured stack.
	Panic Kind = iota
	// Delay blocks the attempt for Fault.Delay (default: well past any
	// test deadline), driving the cell into its CellTimeout.
	Delay
	// Transient fails the first Fault.Attempts attempts of the cell
	// with a runner.Transient error, then lets it succeed — the
	// retry-then-succeed scenario.
	Transient
	// Crash terminates the process between cells (after Fault.After
	// cells have completed) via the package CrashFunc — the
	// kill-mid-campaign scenario for resume proofs.
	Crash
)

// String names the kind as it appears in JVMSIM_FAULTS specs.
func (k Kind) String() string {
	switch k {
	case Panic:
		return "panic"
	case Delay:
		return "delay"
	case Transient:
		return "transient"
	case Crash:
		return "crash-after"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Fault is one injection rule. Match selects cells by key substring
// (empty matches every cell); Every additionally thins the selection to
// cells whose seeded hash lands on 0 mod Every (0 or 1 = every matched
// cell) so large campaigns can fault a deterministic sample.
type Fault struct {
	Kind Kind
	// Match is a substring of the cell key; empty matches all.
	Match string
	// Every thins matched cells: only those with hash(seed, key) % Every
	// == 0 fault. Zero or one means every matched cell.
	Every int
	// Attempts is, for Transient, how many leading attempts fail.
	Attempts int
	// After is, for Crash, how many cells complete before the crash.
	After int
	// Delay is the block duration for Delay faults; zero means a long
	// block (the cell is expected to be abandoned at its deadline).
	Delay time.Duration
}

// CrashFunc is what a Crash fault calls to terminate the process. Tests
// running in-process override it (e.g. to cancel a context and unwind);
// the built binaries keep the default hard exit, whose status is chosen
// to look like SIGKILL so resume handling cannot special-case it.
var CrashFunc = func() {
	os.Exit(137)
}

// Injector implements runner.Hook, applying a deterministic fault plan.
// The zero Injector injects nothing.
type Injector struct {
	Seed   int64
	Faults []Fault

	mu        sync.Mutex
	completed int // cells completed (AfterCell calls)
}

// New builds an injector from a seed and fault rules.
func New(seed int64, faults ...Fault) *Injector {
	return &Injector{Seed: seed, Faults: faults}
}

// selected reports whether f fires for key under the injector's seed.
func (in *Injector) selected(f Fault, key string) bool {
	if f.Match != "" && !strings.Contains(key, f.Match) {
		return false
	}
	if f.Every > 1 {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d/%s", in.Seed, key)
		return h.Sum64()%uint64(f.Every) == 0
	}
	return true
}

// BeforeAttempt applies Panic, Delay and Transient faults. It runs
// inside the runner's panic-isolation scope with the attempt context, so
// a Panic is recovered into a CellError and a Delay observes the cell
// deadline exactly as a hung cell would.
func (in *Injector) BeforeAttempt(ctx context.Context, key string, attempt int) error {
	for _, f := range in.Faults {
		if !in.selected(f, key) {
			continue
		}
		switch f.Kind {
		case Panic:
			panic(fmt.Sprintf("faultinject: injected panic in cell %s (attempt %d)", key, attempt))
		case Delay:
			d := f.Delay
			if d <= 0 {
				d = time.Hour
			}
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return ctx.Err()
			}
		case Transient:
			if attempt <= f.Attempts {
				return runner.Transient(fmt.Errorf("faultinject: injected transient failure in cell %s (attempt %d/%d)", key, attempt, f.Attempts))
			}
		}
	}
	return nil
}

// AfterCell applies Crash faults: once the configured number of cells
// has completed, the process terminates via CrashFunc. The count
// includes the cell whose completion triggers the crash, so
// `crash-after=3` stores at least 3 cells in the result cache before
// dying (more if other cells finish in parallel).
func (in *Injector) AfterCell(key string, err error) {
	in.mu.Lock()
	in.completed++
	n := in.completed
	in.mu.Unlock()
	for _, f := range in.Faults {
		if f.Kind == Crash && n == f.After {
			CrashFunc()
		}
	}
}

// Completed reports how many cells the injector has seen finish.
func (in *Injector) Completed() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.completed
}

// EnvVar is the environment variable FromEnv reads.
const EnvVar = "JVMSIM_FAULTS"

// FromEnv builds an injector from the JVMSIM_FAULTS environment
// variable, the channel the kill-mid-campaign integration tests use to
// reach inside the built binaries. Returns nil (inject nothing) when the
// variable is unset or empty. The spec is semicolon-separated rules:
//
//	panic[=MATCH]          panic in matching cells
//	delay[=MATCH[:MS]]     block matching cells for MS milliseconds (default: forever)
//	transient=MATCH:N      fail matching cells' first N attempts transiently
//	crash-after=N          exit(137) after N cells complete
//	seed=S                 seed for Every-style sampling (default 0)
func FromEnv() (*Injector, error) {
	return Parse(os.Getenv(EnvVar))
}

// Parse builds an injector from a JVMSIM_FAULTS-format spec; empty spec
// means nil injector.
func Parse(spec string) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	in := &Injector{}
	for _, rule := range strings.Split(spec, ";") {
		rule = strings.TrimSpace(rule)
		if rule == "" {
			continue
		}
		name, arg, _ := strings.Cut(rule, "=")
		switch name {
		case "seed":
			s, err := strconv.ParseInt(arg, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faultinject: bad seed %q", arg)
			}
			in.Seed = s
		case "panic":
			in.Faults = append(in.Faults, Fault{Kind: Panic, Match: arg})
		case "delay":
			match, ms, has := strings.Cut(arg, ":")
			f := Fault{Kind: Delay, Match: match}
			if has {
				n, err := strconv.Atoi(ms)
				if err != nil || n < 0 {
					return nil, fmt.Errorf("faultinject: bad delay %q", arg)
				}
				f.Delay = time.Duration(n) * time.Millisecond
			}
			in.Faults = append(in.Faults, f)
		case "transient":
			match, cnt, has := strings.Cut(arg, ":")
			if !has || match == "" {
				return nil, fmt.Errorf("faultinject: transient needs MATCH:N, got %q", arg)
			}
			n, err := strconv.Atoi(cnt)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("faultinject: bad transient count %q", cnt)
			}
			in.Faults = append(in.Faults, Fault{Kind: Transient, Match: match, Attempts: n})
		case "crash-after":
			n, err := strconv.Atoi(arg)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("faultinject: bad crash-after %q", arg)
			}
			in.Faults = append(in.Faults, Fault{Kind: Crash, After: n})
		default:
			return nil, fmt.Errorf("faultinject: unknown fault %q (want panic, delay, transient, crash-after or seed)", name)
		}
	}
	if len(in.Faults) == 0 {
		return nil, nil
	}
	return in, nil
}

// Hook adapts a possibly-nil *Injector to a possibly-nil runner.Hook —
// a nil *Injector inside a non-nil interface would defeat the runner's
// nil check.
func (in *Injector) Hook() runner.Hook {
	if in == nil {
		return nil
	}
	return in
}

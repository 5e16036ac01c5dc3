package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"

	"repro/internal/checkpoint"
	"repro/internal/harness"
	"repro/internal/jit"
	"repro/internal/resultcache"
	"repro/internal/scenarios"
)

// rerunScale is the scale divisor of cache-rerun: large, so a miss is
// cheap next to the cache's own work, and small enough that every
// scenario check still holds.
const rerunScale = 48

// cacheRerun re-runs the all-family campaign × (none, ipa) against a
// result cache that set-up pre-warms. One pass in missEvery adds a
// renamed scenario variant the cache has never seen, at a seed-chosen
// position; its two cells are real misses followed by a Put. An op is
// one whole re-run.
type cacheRerun struct {
	seed int64
	root string // parent of the cache directories
	base []scenarios.Scenario
	cfg  harness.Config
	// ref holds each base cell's canonical payload from a run without
	// the cache.
	ref map[string]string
	// mirror, opened for traced runs, is a second cache in the same state
	// as the measured one; the benchmark's own code replays every lookup
	// of a traced pass against it to time key, get, decode, encode and
	// put one by one.
	mirror *resultcache.Cache
}

// variant is one renamed copy of a base scenario in a re-run.
type variant struct {
	Pos  int    // insertion index into the scenario list
	Base int    // index of the base scenario
	Name string // the new, never-seen name
}

// missEvery is how often a re-run adds a never-seen variant: one pass in
// missEvery, at a seed-chosen offset. The variant's two cells are real
// misses, each followed by a Put, and a Put's CPU cost is mostly the
// filesystem's file creation, which on a shared ext4 disk drifted by
// more than 10x within minutes. With miss passes 2% of all passes the
// op-time median lies well inside the hit-only re-runs, so that drift
// reaches only ops_per_ref_cpu_s, by a few percent, and the put_us
// layer metric, where it shows whole.
const missEvery = 50

// rerunPlan is the variant set of pass n, drawn from seed and n alone:
// empty except on one pass in missEvery. Bases are taken in turn from a
// seed-shuffled cycle through all of them, so every base is copied
// equally often over a run whatever the seed, and a run's mix of cheap
// and costly misses does not depend on the seed; the seed picks the
// offset, the order, the positions and the names.
func rerunPlan(seed int64, pass int, bases []string) []variant {
	setup := rand.New(rand.NewPCG(uint64(seed), 0))
	offset := setup.IntN(missEvery)
	cycle := setup.Perm(len(bases))
	k := pass - offset
	if k%missEvery != 0 {
		return nil
	}
	i := (k / missEvery) % len(bases)
	if i < 0 {
		i += len(bases)
	}
	b := cycle[i]
	r := rand.New(rand.NewPCG(uint64(seed), uint64(pass)))
	return []variant{{
		Pos:  r.IntN(len(bases) + 1),
		Base: b,
		Name: fmt.Sprintf("%s~%d.%d", bases[b], seed, pass),
	}}
}

func (c *cacheRerun) names() []string {
	out := make([]string, len(c.base))
	for i, sc := range c.base {
		out[i] = sc.Name()
	}
	return out
}

// scenariosFor is the scenario list of pass n and the base index of each
// entry.
func (c *cacheRerun) scenariosFor(n int) ([]scenarios.Scenario, []int) {
	list := append([]scenarios.Scenario(nil), c.base...)
	bases := make([]int, len(c.base))
	for i := range bases {
		bases[i] = i
	}
	for _, v := range rerunPlan(c.seed, n, c.names()) {
		sc := c.base[v.Base]
		sc.Workload.Name = v.Name
		list = append(list[:v.Pos], append([]scenarios.Scenario{sc}, list[v.Pos:]...)...)
		bases = append(bases[:v.Pos], append([]int{v.Base}, bases[v.Pos:]...)...)
	}
	return list, bases
}

func (c *cacheRerun) dir() string      { return filepath.Join(c.root, "cache") }
func (c *cacheRerun) cacheDir() string { return c.root }

func (c *cacheRerun) close() {
	os.RemoveAll(c.root)
}

func (c *cacheRerun) setup() error {
	if err := os.RemoveAll(c.root); err != nil {
		return err
	}
	all, err := scenarios.Profile("all")
	if err != nil {
		return err
	}
	c.base = all
	cold := harness.Campaign{Scenarios: all, Agents: agentsNoneIPA, Config: baseConfig(rerunScale, jit.EngineInterp)}
	res, err := cold.Run(context.Background(), nil)
	if err != nil {
		return fmt.Errorf("cold reference: %w", err)
	}
	// A failed reference cell has no entry; the gate of every measured
	// pass then fails on it.
	c.ref = map[string]string{}
	for _, r := range res.Rows {
		if r.M == nil {
			continue
		}
		raw, err := checkpoint.CanonicalPayload(r.M)
		if err != nil {
			return err
		}
		c.ref[cellName(r.Scenario, r.AgentName)] = string(raw)
	}
	cache, err := resultcache.Open(c.dir(), resultcache.ModeRW)
	if err != nil {
		return err
	}
	c.cfg = baseConfig(rerunScale, jit.EngineInterp)
	c.cfg.Cache = cache
	warm := harness.Campaign{Scenarios: all, Agents: agentsNoneIPA, Config: c.cfg}
	if _, err := warm.Run(context.Background(), nil); err != nil {
		return fmt.Errorf("pre-warm: %w", err)
	}
	// Warm-up: two cycles of passes, hit-only but for two. They also
	// keep the pre-warm's file creations, whose cost drifts with the
	// filesystem, a small share of setup_s.
	for n := -2 * missEvery; n < 0; n++ {
		c.pass(n, nil) // the measured passes apply the gate
	}
	return nil
}

// openMirror copies the measured cache's base entries into a second
// cache for traced runs. Finding every entry under the key the
// benchmark computes proves its key derivation is the harness's.
func (c *cacheRerun) openMirror() error {
	mirror, err := resultcache.Open(filepath.Join(c.root, "mirror"), resultcache.ModeRW)
	if err != nil {
		return err
	}
	for _, sc := range c.base {
		for _, agent := range agentsNoneIPA {
			key, err := cellKey(sc, agent, c.cfg)
			if err != nil {
				return err
			}
			raw, ok := c.cfg.Cache.Get(key)
			if !ok {
				return fmt.Errorf("%s: no cache entry under the benchmark's cell key", cellName(sc, agent))
			}
			if err := mirror.Put(key, raw); err != nil {
				return err
			}
		}
	}
	c.mirror = mirror
	return nil
}

// cellKey derives a cell's cache key the way the harness does: the
// scenario's heap applied to the options, then checkpoint.CellKey of
// the harness.CellIdentity.
func cellKey(sc scenarios.Scenario, agent string, cfg harness.Config) (string, error) {
	opts := cfg.Opts
	sc.ApplyHeap(&opts)
	return checkpoint.CellKey(harness.CellIdentity{
		Identity: sc.Identity(), Agent: agent, Opts: opts,
		Scale: cfg.Scale, Runs: cfg.Runs, Warmup: cfg.Warmup,
	})
}

func (c *cacheRerun) pass(n int, tr *passTrace) passOut {
	list, bases := c.scenariosFor(n)
	camp := harness.Campaign{Scenarios: list, Agents: agentsNoneIPA, Config: c.cfg}
	var hook *cellHook
	op := 0
	if tr != nil {
		op = tr.nextOp()
		hook = &cellHook{tr: tr, op: op}
		camp.Config.Hook = hook
		camp.Config.Telemetry = tr.rec
		hook.parent = tr.start("pass", "", op, 0)
	}
	cache := c.cfg.Cache
	s0 := cache.Stats()
	c0, a0 := processCPU(), allocBytes()
	res, err := camp.Run(context.Background(), nil)
	cpu, alloc := processCPU()-c0, allocBytes()-a0
	if tr != nil {
		tr.end(hook.parent)
	}
	s1 := cache.Stats()
	out := passOut{attempted: 1, cpu: cpu, alloc: alloc,
		hits: s1.Hits - s0.Hits, lookups: s1.Hits + s1.Misses - s0.Hits - s0.Misses}
	hits := uint64(len(c.base) * len(agentsNoneIPA))
	misses := uint64(len(list)-len(c.base)) * uint64(len(agentsNoneIPA))
	switch {
	case err != nil:
		out.failure = fmt.Sprintf("pass %d: %v", n, err)
	case res.Failed > 0 || len(res.CheckFailures) > 0:
		out.failure = fmt.Sprintf("pass %d: %d failed cells, check failures %v", n, res.Failed, res.CheckFailures)
	case out.hits != hits || out.lookups-out.hits != misses || s1.Puts-s0.Puts != misses:
		out.failure = fmt.Sprintf("pass %d: %d hits, %d misses, %d puts; planned %d hits, %d misses",
			n, out.hits, out.lookups-out.hits, s1.Puts-s0.Puts, hits, misses)
	default:
		out.failure = c.checkRows(n, res.Rows, bases)
	}
	if out.failure != "" {
		return out
	}
	out.opCPU = []float64{float64(cpu)}
	if tr != nil {
		out.failure = c.mirrorPass(tr, op, res.Rows, bases, &out.counts)
	}
	return out
}

// checkRows compares every decoded row with the cold reference; a
// variant must equal its base scenario's row but for the name.
func (c *cacheRerun) checkRows(n int, rows []harness.CampaignRow, bases []int) string {
	if len(rows) != len(bases)*len(agentsNoneIPA) {
		return fmt.Sprintf("pass %d: %d rows for %d scenarios", n, len(rows), len(bases))
	}
	for i, r := range rows {
		base := c.base[bases[i/len(agentsNoneIPA)]]
		m := *r.M
		m.Benchmark = base.Name()
		raw, err := checkpoint.CanonicalPayload(&m)
		if err != nil {
			return err.Error()
		}
		if ref, ok := c.ref[cellName(base, r.AgentName)]; !ok || string(raw) != ref {
			return fmt.Sprintf("pass %d: %s differs from the cold reference", n, cellName(r.Scenario, r.AgentName))
		}
	}
	return ""
}

// mirrorPass repeats a traced pass's lookups against the mirror cache
// with a span around each call: key, get, then decode on a hit, or
// encode and put on a miss; the misses are then replayed. The hit/miss
// pattern must be the plan's: base scenarios hit, variants miss.
func (c *cacheRerun) mirrorPass(tr *passTrace, op int, rows []harness.CampaignRow, bases []int, counts *simCounts) string {
	var misses []cellRef
	for i, r := range rows {
		cell := cellName(r.Scenario, r.AgentName)
		isVariant := r.Scenario.Name() != c.base[bases[i/len(agentsNoneIPA)]].Name()
		top := tr.start("cache", cell, op, 0)
		layer := func(name string, f func() error) error {
			id := tr.start(name, cell, op, top)
			defer tr.end(id)
			return f()
		}
		var (
			key string
			raw json.RawMessage
			hit bool
		)
		err := layer("key", func() (err error) {
			key, err = cellKey(r.Scenario, r.AgentName, c.cfg)
			return err
		})
		if err == nil {
			layer("get", func() error {
				raw, hit = c.mirror.Get(key)
				return nil
			})
		}
		switch {
		case err != nil || hit == isVariant:
		case hit:
			err = layer("decode", func() error { return json.Unmarshal(raw, new(harness.Measurement)) })
		default:
			misses = append(misses, cellRef{op: op, sc: r.Scenario, agent: r.AgentName, cycles: r.M.MedianCycles})
			err = layer("encode", func() (err error) {
				raw, err = checkpoint.CanonicalPayload(r.M)
				return err
			})
			if err == nil {
				err = layer("put", func() error { return c.mirror.Put(key, raw) })
			}
		}
		tr.end(top)
		if err != nil {
			return err.Error()
		}
		if hit == isVariant {
			return fmt.Sprintf("%s: mirror hit=%v, planned hit=%v", cell, hit, !isVariant)
		}
	}
	var err error
	if *counts, err = replayCells(tr, misses, c.cfg); err != nil {
		return err.Error()
	}
	return ""
}

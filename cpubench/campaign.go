package main

import (
	"context"
	"fmt"
	"math/rand/v2"

	"repro/internal/checkpoint"
	"repro/internal/harness"
	"repro/internal/jit"
	"repro/internal/scenarios"
)

// agentsNoneIPA are the agent columns of the campaign workloads.
var agentsNoneIPA = []string{"none", "ipa"}

// campaignJIT runs the all-family catalogue × (none, ipa) at scale 8 on
// the jit engine through harness.Campaign, in a seed-shuffled scenario
// order per pass. An op is one cell, timed by the runner Hook. (With one
// P the runner's in-order emit callbacks run whenever the worker yields,
// often several cells late, so emit-to-emit intervals do not time cells.)
type campaignJIT struct {
	seed int64
	all  []scenarios.Scenario
	cfg  harness.Config
	// ref holds each cell's canonical payload from an interp-engine run,
	// tier bookkeeping cleared: the engines must agree on everything else.
	ref map[string]string
}

// campaignOrder is the scenario order of pass n: a permutation of n
// scenarios drawn from seed and n alone.
func campaignOrder(seed int64, pass, n int) []int {
	return rand.New(rand.NewPCG(uint64(seed), uint64(pass))).Perm(n)
}

// payloadKey is the canonical payload of a row without the tier
// bookkeeping, the one field engines legitimately disagree on.
func payloadKey(m *harness.Measurement) (string, error) {
	c := *m
	c.Tier = jit.Stats{}
	raw, err := checkpoint.CanonicalPayload(&c)
	return string(raw), err
}

func (c *campaignJIT) setup() error {
	all, err := scenarios.Profile("all")
	if err != nil {
		return err
	}
	c.all = all
	ref := harness.Campaign{Scenarios: all, Agents: agentsNoneIPA, Config: baseConfig(8, jit.EngineInterp)}
	res, err := ref.Run(context.Background(), nil)
	if err != nil {
		return fmt.Errorf("interp reference: %w", err)
	}
	// A failed reference cell has no entry; the gate of every measured
	// pass then fails on it.
	c.ref = map[string]string{}
	for _, r := range res.Rows {
		if r.M == nil {
			continue
		}
		if c.ref[cellName(r.Scenario, r.AgentName)], err = payloadKey(r.M); err != nil {
			return err
		}
	}
	c.cfg = baseConfig(8, jit.EngineJIT)
	c.pass(-1, nil) // warm-up; the measured passes apply the gate
	return nil
}

func (c *campaignJIT) cacheDir() string { return "" }
func (c *campaignJIT) close()           {}

func (c *campaignJIT) pass(n int, tr *passTrace) passOut {
	order := make([]scenarios.Scenario, len(c.all))
	for i, j := range campaignOrder(c.seed, n, len(c.all)) {
		order[i] = c.all[j]
	}
	hook := &cellHook{tr: tr, op: -1}
	camp := harness.Campaign{Scenarios: order, Agents: agentsNoneIPA, Config: c.cfg}
	camp.Config.Hook = hook
	if tr != nil {
		camp.Config.Telemetry = tr.rec
		hook.parent = tr.start("pass", "", 0, 0)
	}
	c0, a0 := processCPU(), allocBytes()
	res, err := camp.Run(context.Background(), nil)
	out := passOut{attempted: len(order) * len(agentsNoneIPA), cpu: processCPU() - c0, alloc: allocBytes() - a0}
	if tr != nil {
		tr.end(hook.parent)
	}
	if out.failure = c.check(n, res, err); out.failure != "" {
		return out
	}
	out.opCPU = hook.cpu
	if tr == nil {
		return out
	}
	cells := make([]cellRef, len(res.Rows))
	for i, row := range res.Rows {
		if hook.keys[i] != cellName(row.Scenario, row.AgentName) {
			out.failure = fmt.Sprintf("cell %d ran as %s, expected %s", i, hook.keys[i], cellName(row.Scenario, row.AgentName))
			return out
		}
		cells[i] = cellRef{op: hook.ops[i], sc: row.Scenario, agent: row.AgentName, cycles: row.M.MedianCycles}
	}
	if out.counts, err = replayCells(tr, cells, c.cfg); err != nil {
		out.failure = err.Error()
	}
	return out
}

// check is the campaign-jit correctness gate: no failed cell, no failed
// scenario check, and every row equal to the interp reference.
func (c *campaignJIT) check(n int, res *harness.CampaignResult, err error) string {
	if err != nil {
		return fmt.Sprintf("pass %d: %v", n, err)
	}
	if res.Failed > 0 || len(res.CheckFailures) > 0 {
		return fmt.Sprintf("pass %d: %d failed cells, check failures %v", n, res.Failed, res.CheckFailures)
	}
	if len(res.Rows) != len(c.all)*len(agentsNoneIPA) {
		return fmt.Sprintf("pass %d: %d rows, expected %d", n, len(res.Rows), len(c.all)*len(agentsNoneIPA))
	}
	for _, r := range res.Rows {
		got, err := payloadKey(r.M)
		if err != nil {
			return err.Error()
		}
		if ref, ok := c.ref[cellName(r.Scenario, r.AgentName)]; !ok || got != ref {
			return fmt.Sprintf("pass %d: %s differs from the interp reference", n, cellName(r.Scenario, r.AgentName))
		}
	}
	return ""
}

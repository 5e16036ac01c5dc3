package main

import (
	"fmt"
	"os"

	"repro/internal/harness"
	"repro/internal/jit"
	"repro/internal/scenarios"
)

// goldenPath is the byte-exact rendering of Tables I+II at scale 8,
// relative to the root of the checkout.
const goldenPath = "internal/harness/testdata/paper_tables_scale8.golden"

// paperInterp regenerates Tables I and II at scale 8 on the interp
// engine every pass, through harness.TableI and harness.TableII. An op is
// one cell, timed by the runner Hook from BeforeAttempt to AfterCell.
type paperInterp struct {
	golden string
	cfg    harness.Config
	paper  []scenarios.Scenario
}

// The agent columns of the two tables, in the order the harness runs
// them: Table I is paper × (none, spa, ipa), Table II paper × (ipa, none).
var (
	tableIAgents  = []string{"none", "spa", "ipa"}
	tableIIAgents = []string{"ipa", "none"}
)

func (p *paperInterp) setup() error {
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		return fmt.Errorf("reading the paper-table golden (run from the root of the repository): %w", err)
	}
	p.golden = string(golden)
	if p.paper, err = scenarios.Profile("paper"); err != nil {
		return err
	}
	p.cfg = baseConfig(8, jit.EngineInterp)
	p.pass(-1, nil) // warm-up; the measured passes apply the gate
	return nil
}

func (p *paperInterp) cacheDir() string { return "" }
func (p *paperInterp) close()           {}

// tables renders Table I + Table II exactly as the golden was rendered,
// and returns the simulated cycles of every Table I cell by cell name.
func tables(cfg harness.Config) (string, map[string]float64, error) {
	rows1, err := harness.TableI(cfg)
	if err != nil {
		return "", nil, err
	}
	geo, err := harness.GeoMeanRow(rows1)
	if err != nil {
		return "", nil, err
	}
	t1, err := harness.RenderTableI(rows1, geo)
	if err != nil {
		return "", nil, err
	}
	rows2, err := harness.TableII(cfg)
	if err != nil {
		return "", nil, err
	}
	t2, err := harness.RenderTableII(rows2)
	if err != nil {
		return "", nil, err
	}
	cycles := map[string]float64{}
	for _, r := range rows1 {
		cycles[r.Benchmark+"/none"] = r.TimeOriginal
		cycles[r.Benchmark+"/spa"] = r.TimeSPA
		cycles[r.Benchmark+"/ipa"] = r.TimeIPA
	}
	return t1 + "\n" + t2, cycles, nil
}

func (p *paperInterp) pass(n int, tr *passTrace) passOut {
	planned := len(p.paper) * (len(tableIAgents) + len(tableIIAgents))
	hook := &cellHook{tr: tr, op: -1}
	cfg := p.cfg
	cfg.Hook = hook
	if tr != nil {
		cfg.Telemetry = tr.rec
		hook.parent = tr.start("pass", "", 0, 0)
	}
	c0, a0 := processCPU(), allocBytes()
	text, cycles, err := tables(cfg)
	out := passOut{attempted: planned, cpu: processCPU() - c0, alloc: allocBytes() - a0}
	if tr != nil {
		tr.end(hook.parent)
	}
	switch {
	case err != nil:
		out.failure = fmt.Sprintf("pass %d: %v", n, err)
	case text != p.golden:
		out.failure = fmt.Sprintf("pass %d: Tables I+II differ from %s", n, goldenPath)
	case len(hook.cpu) != planned:
		out.failure = fmt.Sprintf("pass %d: timed %d cells, planned %d", n, len(hook.cpu), planned)
	}
	if out.failure != "" {
		return out
	}
	out.opCPU = hook.cpu
	if tr != nil {
		out.failure = p.replayPass(tr, hook, cycles, &out.counts)
	}
	return out
}

// replayPass decomposes every cell of a traced pass, in the order the
// harness ran them, and checks each against the cycles the harness
// reported.
func (p *paperInterp) replayPass(tr *passTrace, hook *cellHook, cycles map[string]float64, counts *simCounts) string {
	var cells []cellRef
	for _, agents := range [][]string{tableIAgents, tableIIAgents} {
		for _, sc := range p.paper {
			for _, agent := range agents {
				i, name := len(cells), cellName(sc, agent)
				if hook.keys[i] != name {
					return fmt.Sprintf("cell %d ran as %s, expected %s", i, hook.keys[i], name)
				}
				cells = append(cells, cellRef{op: hook.ops[i], sc: sc, agent: agent, cycles: cycles[name]})
			}
		}
	}
	c, err := replayCells(tr, cells, p.cfg)
	if err != nil {
		return err.Error()
	}
	*counts = c
	return ""
}

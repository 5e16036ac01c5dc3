package cli

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/resultcache"
	"repro/internal/runner"
	"repro/internal/scenarios"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

// Renderer is one tool's rendered cell: jvmsim's statistics or jprof's
// report of one scenario run.
type Renderer struct {
	// Key returns the identity the cell's cache key hashes, given the
	// options with the scenario's heap spec applied: the scenario's
	// content identity under everything that shapes the text, plus a
	// payload-kind discriminator so the tool's payloads never collide
	// with another's in a shared cache directory.
	Key func(s scenarios.Scenario, opts vm.Options) any
	// Render runs the scenario on its own VM and renders its text.
	Render func(ctx context.Context, s scenarios.Scenario, opts vm.Options) (string, error)
	// Host, when set, appends the cell's host-side production cost to
	// its text (jprof -cellstats), outside the cached payload, so cold
	// and warm text stay identical.
	Host func(text string, h core.HostStats) (string, error)
	// Failed is the Printf format of a failed cell's line, given the
	// cell key and its error.
	Failed string
	// Separator is printed between consecutive cells.
	Separator string
}

// RunCells runs one cell per scenario under the opened configuration,
// prints the cells in argument order (a failed cell reports its error
// in place), runs Finish and returns the exit code: fatal (1) when
// Finish failed, else partial (3) when a cell failed.
func (f *Flags) RunCells(scns []scenarios.Scenario, r Renderer) int {
	tel := f.cfg.Telemetry
	memo := new(resultcache.Memo)
	cells := make([]runner.Cell[string], len(scns))
	for i, s := range scns {
		cells[i] = runner.Cell[string]{
			Key:   s.Name() + "/" + f.Agent,
			Group: s.Family,
			Do: func(ctx context.Context) (string, error) {
				return f.resolve(ctx, s, r, memo)
			},
		}
	}
	results, err := runner.Run(context.Background(), f.cfg.RunnerOptions(), cells)
	failed := 0
	for i, res := range results {
		if i > 0 {
			fmt.Print(r.Separator)
		}
		tel.Count(cells[i].Group, telemetry.MetricCells, 1)
		if res.Err != nil {
			failed++
			tel.Count(cells[i].Group, telemetry.MetricCellsFailed, 1)
			fmt.Printf(r.Failed, res.Key, res.Err)
			continue
		}
		fmt.Print(res.Value)
	}
	finishErr := f.Finish()
	if failed > 0 {
		// Cell failures are already reported in place; the batch error is
		// their FirstError, so the partial exit subsumes it.
		f.sum.Partial(failed, len(results))
	} else if err != nil {
		f.sum.Error(err)
		return harness.ExitFatal
	}
	switch {
	case finishErr != nil:
		return harness.ExitFatal
	case failed > 0:
		return harness.ExitPartial
	}
	return harness.ExitComplete
}

// resolve serves one cell through the result cache: a hit (or an
// identical cell of this invocation) serves the canonical rendered
// text, anything else renders it. Every source serves the same payload,
// so the text is byte-identical however the cell was resolved.
func (f *Flags) resolve(ctx context.Context, s scenarios.Scenario, r Renderer, memo *resultcache.Memo) (string, error) {
	if tel := f.cfg.Telemetry; tel != nil {
		var span *telemetry.Span
		ctx, span = tel.StartSpan(ctx, telemetry.CatCampaign, "cell")
		if span != nil {
			span.Arg("cell", s.Name()+"/"+f.Agent).Arg("family", s.Family)
		}
		start := time.Now()
		defer func() {
			tel.Observe(s.Family, telemetry.MetricCellWallNanos,
				float64(time.Since(start).Nanoseconds()))
			span.End()
		}()
	}
	var doneHost func(string) core.HostStats
	if r.Host != nil {
		doneHost = core.StartHostMeasure()
	}
	opts := f.cfg.Opts
	s.ApplyHeap(&opts)
	key, err := checkpoint.CellKey(r.Key(s, opts))
	if err != nil {
		return "", err
	}
	var text string
	source, err := f.cfg.Cache.Resolve(memo, key, f.cfg.CacheVerify, &text, func() (json.RawMessage, error) {
		out, err := r.Render(ctx, s, opts)
		if err != nil {
			return nil, err
		}
		return checkpoint.CanonicalPayload(out)
	})
	if err != nil {
		return "", err
	}
	if doneHost == nil {
		return text, nil
	}
	return r.Host(text, doneHost(source))
}

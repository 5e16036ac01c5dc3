package stats

import (
	"fmt"

	"repro/internal/core"
)

// MergeReports sums two agent reports' totals into one, the aggregation
// used for warehouse sequences (SPEC JBB2005 style) where one measurement
// spans several VM runs. A nil add leaves into unchanged; a nil into
// starts a fresh accumulator, so callers never alias a report owned by an
// agent. The merged report keeps the agent name and the totals only — no
// per-thread rows — so a Measurement in memory and one decoded from its
// cell payload are the same.
func MergeReports(into, add *core.Report) *core.Report {
	if add == nil {
		return into
	}
	if into == nil {
		into = &core.Report{AgentName: add.AgentName}
	}
	into.TotalBytecodeCycles += add.TotalBytecodeCycles
	into.TotalNativeCycles += add.TotalNativeCycles
	into.JNICalls += add.JNICalls
	into.NativeMethodCalls += add.NativeMethodCalls
	into.PerThread = nil
	return into
}

// GeoMeanColumns computes the geometric mean of each column of a
// row-major matrix: rows are benchmarks, columns are configurations
// (original, SPA, IPA in Table I). Every row must have the same width and
// every sample must be positive; an empty matrix is ErrEmpty.
func GeoMeanColumns(rows [][]float64) ([]float64, error) {
	if len(rows) == 0 {
		return nil, ErrEmpty
	}
	width := len(rows[0])
	cols := make([][]float64, width)
	for _, row := range rows {
		if len(row) != width {
			return nil, fmt.Errorf("stats: ragged matrix: row width %d, want %d", len(row), width)
		}
		for j, v := range row {
			cols[j] = append(cols[j], v)
		}
	}
	out := make([]float64, width)
	for j, col := range cols {
		g, err := GeoMean(col)
		if err != nil {
			return nil, err
		}
		out[j] = g
	}
	return out, nil
}

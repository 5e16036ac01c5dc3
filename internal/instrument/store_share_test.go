package instrument_test

import (
	"testing"

	"repro/internal/harness/gridtest"
	"repro/internal/instrument"
)

// TestRewritesStayUnwritten runs the paper grid and the all-family
// campaign on four workers twice, so IPA cells on several goroutines
// load the stored rewrites at once, and checks that no cell writes one
// (gridtest.CheckUnwritten): every stored rewrite keeps its digest and
// equals a fresh rewrite of the input its key encodes.
func TestRewritesStayUnwritten(t *testing.T) {
	gridtest.CheckUnwritten(t, gridtest.Store{
		Clear:   instrument.ClearRewrites,
		Digests: instrument.RewriteDigests,
		Stale:   instrument.StaleRewrites,
		Plant:   instrument.PlantRewriteWrite,
	})
}

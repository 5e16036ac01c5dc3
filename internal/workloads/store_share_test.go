package workloads_test

import (
	"testing"

	"repro/internal/harness/gridtest"
	"repro/internal/workloads"
)

// TestProgramsStayUnwritten runs the paper grid and the all-family
// campaign on four workers twice, so cells on several goroutines share
// the stored program classes at once, and checks that no cell writes one
// (gridtest.CheckUnwritten): every stored class keeps its digest and
// equals a fresh generation of the workload its key encodes.
func TestProgramsStayUnwritten(t *testing.T) {
	gridtest.CheckUnwritten(t, gridtest.Store{
		Clear:   workloads.ClearPrograms,
		Digests: workloads.ProgramDigests,
		Stale:   workloads.StalePrograms,
		Plant:   workloads.PlantProgramWrite,
	})
}

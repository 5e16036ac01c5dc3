package vm_test

import (
	"testing"

	"repro/internal/harness/gridtest"
	"repro/internal/vm"
)

// TestClassImagesStayUnwritten runs the paper grid and the all-family
// campaign as none and ipa on four workers twice, so VMs on several
// goroutines share the stored class images at once, and checks that no
// VM writes one (gridtest.CheckUnwritten): every stored image keeps its
// digest and equals a fresh load of its class. The planted write goes
// into a stored lowering.
func TestClassImagesStayUnwritten(t *testing.T) {
	gridtest.CheckUnwritten(t, gridtest.Store{
		Clear:   vm.ClearImages,
		Digests: func() (map[string][32]byte, error) { return vm.ImageDigests(), nil },
		Stale:   vm.StaleImages,
		Plant:   vm.PlantImageWrite,
	})
}

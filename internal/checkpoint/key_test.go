package checkpoint_test

import (
	"testing"

	"repro/internal/checkpoint/keytest"
)

type leafPhase struct {
	Kind string `json:"kind"`
	Work int    `json:"work,omitempty"`
}

type leafInner struct {
	Name  string      `json:"name"`
	Iters uint64      `json:"iters"`
	Seq   []int       `json:"seq,omitempty"`
	Steps []leafPhase `json:"steps"`
}

type leafIdentity struct {
	leafInner
	Engine uint8  `json:"engine"`
	On     bool   `json:"on"`
	Heap   int32  `json:"heap"`
	Note   string `json:"-"`
}

// TestCheckLeaves runs the key-coverage check over an identity with an
// embedded struct, a slice of structs and a scalar slice.
func TestCheckLeaves(t *testing.T) {
	keytest.CheckLeaves(t, leafIdentity{})
}

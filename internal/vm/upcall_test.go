package vm_test

import (
	"testing"

	"repro/internal/agents/registry"
	"repro/internal/core"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// TestJBB2005UpcallsPerThread runs jbb2005, whose four warehouse threads
// each call back into Java from native code, with and without IPA's
// function-table wrappers. Each thread keeps its own resolutions, so
// under -race this checks that they need no lock; the JNI call count
// checks that every callback still dispatched through the table.
func TestJBB2005UpcallsPerThread(t *testing.T) {
	b, err := workloads.ByName("jbb2005")
	if err != nil {
		t.Fatal(err)
	}
	spec := b.Spec.Scale(40)
	for _, agent := range []string{"none", "ipa"} {
		prog, err := workloads.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		var a core.Agent
		if agent != "none" {
			if a, err = registry.New(agent, registry.Config{}); err != nil {
				t.Fatal(err)
			}
		}
		res, err := core.Run(prog, a, vm.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", agent, err)
		}
		if res.Threads != spec.Threads {
			t.Fatalf("%s: %d threads, want %d warehouses", agent, res.Threads, spec.Threads)
		}
		// Each thread's launcher invocation is a JNI call too.
		if want := spec.ExpectedJNICallbacks() + uint64(res.Threads); res.Truth.JNICalls != want {
			t.Fatalf("%s: %d JNI calls, want %d", agent, res.Truth.JNICalls, want)
		}
	}
}

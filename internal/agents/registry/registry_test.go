package registry

import (
	"testing"

	"repro/internal/agents/ipa"
	"repro/internal/vm"
)

func TestNames(t *testing.T) {
	want := []string{"aprof", "bic", "chains", "ipa", "none", "recorder", "sampler", "spa"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
}

func TestNewKnownAgents(t *testing.T) {
	for _, name := range Names() {
		agent, err := New(name, Config{})
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if name == "none" {
			if agent != nil {
				t.Fatalf("New(none) = %v, want nil agent", agent)
			}
			continue
		}
		if agent == nil {
			t.Fatalf("New(%q) = nil", name)
		}
		if Describe(name) == "" {
			t.Errorf("Describe(%q) empty", name)
		}
	}
}

func TestNewUnknown(t *testing.T) {
	if _, err := New("hprof", Config{}); err == nil {
		t.Fatal("New(hprof) did not fail")
	}
}

// TestNewReturnsFreshAgents: agents are single-use, so the registry must
// never hand out the same instance twice.
func TestNewReturnsFreshAgents(t *testing.T) {
	a, _ := New("ipa", Config{})
	b, _ := New("ipa", Config{})
	if a == b {
		t.Fatal("New(ipa) returned the same instance twice")
	}
}

func TestIPAPerMethodConfig(t *testing.T) {
	a, err := New("ipa", Config{PerMethod: true})
	if err != nil {
		t.Fatal(err)
	}
	ag, ok := a.(*ipa.Agent)
	if !ok {
		t.Fatalf("New(ipa) = %T", a)
	}
	if !ag.Config().PerMethod || !ag.Config().Compensate {
		t.Fatalf("ipa config = %+v", ag.Config())
	}
}

func TestTuneOptions(t *testing.T) {
	opts := vm.DefaultOptions()
	TuneOptions("spa", &opts)
	if opts != vm.DefaultOptions() {
		t.Fatal("TuneOptions(spa) changed options")
	}
	TuneOptions("sampler", &opts)
	if opts.SampleInterval == 0 || opts.SampleCost == 0 {
		t.Fatalf("TuneOptions(sampler) = %+v", opts)
	}
}

func TestParseList(t *testing.T) {
	got, err := ParseList("none, spa,ipa")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != "none" || got[2] != "ipa" {
		t.Fatalf("list = %v", got)
	}
	for _, bad := range []string{"", ",,", "none,warp", "spa,spa"} {
		if _, err := ParseList(bad); err == nil {
			t.Errorf("ParseList(%q) succeeded", bad)
		}
	}
}

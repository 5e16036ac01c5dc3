package scenarios

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/workloads"
)

// File is the declarative scenario-file format the binaries load with
// -scenario. A file holds any number of scenarios; each is a workload
// (name, iteration count, phase list) plus optional family, warehouse
// sequence and expected-value checks:
//
//	{
//	  "scenarios": [
//	    {
//	      "name": "my-workload",
//	      "family": "custom",
//	      "outerIters": 2000,
//	      "phases": [
//	        {"kind": "bytecode", "calls": 10, "work": 5},
//	        {"kind": "native", "calls": 2, "work": 30, "jniEvery": 10, "callbackWork": 5}
//	      ],
//	      "checks": {"maxNativePct": 25}
//	    }
//	  ]
//	}
//
// Unknown fields (including misspelled phase parameters) are rejected, and
// every workload is validated phase by phase before registration.
type File struct {
	Scenarios []FileScenario `json:"scenarios"`
}

// FileScenario is one scenario entry of a scenario file: the workload
// fields inline plus the registry metadata.
type FileScenario struct {
	workloads.Workload
	Family            string    `json:"family,omitempty"`
	WarehouseSequence []int     `json:"warehouseSequence,omitempty"`
	Checks            Checks    `json:"checks,omitempty"`
	Heap              *HeapSpec `json:"heap,omitempty"`
	Pins              *Pins     `json:"pins,omitempty"`
}

// Scenario converts the file entry to its registry form, defaulting the
// family to "custom" and deriving a class name from the scenario name when
// none is given.
func (f FileScenario) Scenario() Scenario {
	s := Scenario{
		Family:            f.Family,
		Workload:          f.Workload,
		WarehouseSequence: f.WarehouseSequence,
		Checks:            f.Checks,
		Heap:              f.Heap,
		Pins:              f.Pins,
	}
	if s.Family == "" {
		s.Family = "custom"
	}
	if s.Workload.ClassName == "" {
		s.Workload.ClassName = "scenario/" + className(f.Workload.Name)
	}
	return s
}

// className derives a class-name segment from a scenario name: alphanumeric
// runs are kept, everything else becomes an underscore.
func className(name string) string {
	mapped := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		default:
			return '_'
		}
	}, name)
	if mapped == "" {
		mapped = "W"
	}
	return mapped
}

// Parse reads a scenario file and returns its validated scenarios without
// registering them. Unknown JSON fields, unknown phase kinds and invalid
// phase parameters are errors.
func Parse(r io.Reader) ([]Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var f File
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("scenarios: parsing scenario file: %w", err)
	}
	// Decode reads exactly one JSON value; trailing content (a duplicated
	// document from a botched merge, say) would otherwise be dropped
	// silently.
	if dec.More() {
		return nil, fmt.Errorf("scenarios: scenario file has trailing content after the document")
	}
	if len(f.Scenarios) == 0 {
		return nil, fmt.Errorf("scenarios: scenario file declares no scenarios")
	}
	out := make([]Scenario, 0, len(f.Scenarios))
	seen := map[string]bool{}
	for i, fs := range f.Scenarios {
		s := fs.Scenario()
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("scenarios: scenario %d (%q): %w", i, fs.Name, err)
		}
		if seen[s.Name()] {
			return nil, fmt.Errorf("scenarios: scenario file repeats name %q", s.Name())
		}
		seen[s.Name()] = true
		out = append(out, s)
	}
	return out, nil
}

// ParseBytes is Parse over an in-memory document.
func ParseBytes(data []byte) ([]Scenario, error) {
	return Parse(bytes.NewReader(data))
}

// LoadFile parses the scenario file at path and registers every scenario
// atomically, returning them in file order. Names that collide with
// already-registered scenarios are errors, and a failed load registers
// nothing.
func LoadFile(path string) ([]Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("scenarios: %w", err)
	}
	defer f.Close()
	list, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("scenarios: %s: %w", path, err)
	}
	if err := RegisterAll(list); err != nil {
		return nil, fmt.Errorf("scenarios: %s: %w", path, err)
	}
	return list, nil
}

// Marshal renders scenarios back into the file format, the inverse of
// Parse for tooling that generates scenario files.
func Marshal(list []Scenario) ([]byte, error) {
	f := File{Scenarios: make([]FileScenario, len(list))}
	for i, s := range list {
		f.Scenarios[i] = FileScenario{
			Workload:          s.Workload,
			Family:            s.Family,
			WarehouseSequence: s.WarehouseSequence,
			Checks:            s.Checks,
			Heap:              s.Heap,
			Pins:              s.Pins,
		}
	}
	data, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenarios: marshal: %w", err)
	}
	return append(data, '\n'), nil
}

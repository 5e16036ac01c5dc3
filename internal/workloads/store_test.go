package workloads

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/vm"
)

// raceEnabled reports a build with the race detector (race_test.go).
var raceEnabled bool

// storeWorkload has a native phase with JNI callbacks and warehouses, so
// its programs carry both kinds of per-call native state.
func storeWorkload() Workload {
	return Workload{
		Name: "store", ClassName: "t/Store", OuterIters: 5, Threads: 2, OpsPerIter: 3,
		Phases: []Phase{
			{Kind: PhaseBytecode, Calls: 2, Work: 4},
			{Kind: PhaseNative, Calls: 1, Work: 10, JNIEvery: 4, CallbackWork: 2},
		},
	}
}

// TestProgramKeyCoversEveryField sets every field of a workload and of
// its phase, one at a time, and requires the store key to move, so a
// field added later cannot make two different workloads share a class.
func TestProgramKeyCoversEveryField(t *testing.T) {
	base := Workload{Phases: []Phase{{}}}
	want := string(programKey(nil, base))
	checked := 0
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
			return
		case reflect.Slice:
			walk(v.Index(0), path+"[0]")
			return
		case reflect.String:
			v.SetString("x")
		case reflect.Int:
			v.SetInt(1)
		case reflect.Uint64:
			v.SetUint(1)
		default:
			t.Fatalf("%s: unhandled kind %s", path, v.Kind())
		}
		if string(programKey(nil, base)) == want {
			t.Errorf("setting %s leaves the program key unchanged", path)
		}
		v.SetZero()
		checked++
	}
	walk(reflect.ValueOf(&base).Elem(), "Workload")
	if checked != 13 {
		t.Fatalf("checked %d fields, want 13", checked)
	}
	// Length prefixes keep string boundaries apart.
	a, b := base, base
	a.Name, a.ClassName = "ab", "c"
	b.Name, b.ClassName = "a", "bc"
	if string(programKey(nil, a)) == string(programKey(nil, b)) {
		t.Fatal("moving a byte between Name and ClassName keeps the key")
	}
}

// TestBuildWorkloadSharesOnlyTheClass: two builds of equal workloads
// share the generated class and nothing else; a workload differing in
// one field gets its own class; an invalid workload fails every time and
// is never stored.
func TestBuildWorkloadSharesOnlyTheClass(t *testing.T) {
	w := storeWorkload()
	p1, err := BuildWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := BuildWorkload(storeWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if p1.Classes[0] != p2.Classes[0] {
		t.Fatal("equal workloads got two classes")
	}
	if &p1.Classes[0] == &p2.Classes[0] || &p1.Args[0] == &p2.Args[0] {
		t.Fatal("two programs share a slice")
	}
	if reflect.ValueOf(p1.Libraries[0].Funcs).Pointer() == reflect.ValueOf(p2.Libraries[0].Funcs).Pointer() {
		t.Fatal("two programs share a native library")
	}
	fresh, err := generate(w)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1.Classes[0], fresh) {
		t.Fatal("the stored class differs from a fresh generation")
	}
	w.Phases = append([]Phase(nil), w.Phases...)
	w.Phases[0].Work++
	p3, err := BuildWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	if p3.Classes[0] == p1.Classes[0] {
		t.Fatal("a workload with other work shared the class")
	}
	bad := storeWorkload()
	bad.Phases[0].Size = 1 // not a bytecode parameter
	for i := 0; i < 2; i++ {
		if _, err := BuildWorkload(bad); err == nil {
			t.Fatalf("build %d: an invalid workload built", i)
		}
	}
	if _, ok := programs.Get(programKey(nil, bad)); ok {
		t.Fatal("an invalid workload was stored")
	}
}

// TestBuildWorkloadHitAllocations bounds what a build of a stored
// workload allocates: the Program, its class, argument and library
// slices, and the native library — its name, its map (two allocations),
// the nwork kernel's symbol, closure and counter, and the spawn helper's
// symbol and closure. Nothing of the class is built again.
func TestBuildWorkloadHitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	w := storeWorkload()
	if _, err := BuildWorkload(w); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := BuildWorkload(w); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 12 {
		t.Fatalf("a stored build allocated %v times, want at most 12", allocs)
	}
}

// TestProgramsCountJNIEveryApart runs two programs built from one
// workload at once: each must make the callbacks of a solo run, so
// neither sees the other's nwork invocations. The workload makes 10
// native calls per run with a callback every fourth; a counter shared by
// both runs would make 5 callbacks between them instead of 2 each.
func TestProgramsCountJNIEveryApart(t *testing.T) {
	w := storeWorkload()
	run := func(prog *core.Program) uint64 {
		res, err := core.Run(prog, nil, vm.DefaultOptions())
		if err != nil {
			t.Error(err)
			return 0
		}
		return res.Truth.JNICalls
	}
	solo, err := BuildWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	want := run(solo)
	if cb := w.ExpectedJNICallbacks(); cb != 2 {
		t.Fatalf("workload expects %d callbacks per run, want 2", cb)
	}
	for round := 0; round < 20; round++ {
		var wg sync.WaitGroup
		got := make([]uint64, 2)
		for i := range got {
			prog, err := BuildWorkload(w)
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = run(prog)
			}()
		}
		wg.Wait()
		if got[0] != want || got[1] != want {
			t.Fatalf("round %d: concurrent runs made %v JNI calls, a solo run %d", round, got, want)
		}
	}
}

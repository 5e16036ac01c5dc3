package vm

import (
	"fmt"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/classfile"
	"repro/internal/jit"
)

// raceEnabled reports a build with the race detector (race_test.go).
var raceEnabled bool

// mulAddClass returns a class whose f(x) = x*31 + 7 lowers to the fused
// multiply-add op that the jit test defect corrupts.
func mulAddClass(t *testing.T) *classfile.Class {
	t.Helper()
	a := bytecode.NewAssembler()
	a.Load(0)
	a.Const(31)
	a.Mul()
	a.Const(7)
	a.Add()
	a.IReturn()
	m, err := a.FinishMethod("f", "(I)I", classfile.AccStatic, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return buildClass(t, "t/MulAdd", m)
}

// imageStored reports whether the store holds an image for def under
// the armed defect.
func imageStored(def *classfile.Class) bool {
	key, ok := classImageKey(nil, def, jit.ArmedTestDefect())
	if !ok {
		return false
	}
	_, hit := images.Get(key)
	return hit
}

// loadRun loads def into a fresh VM and runs name(arg).
func loadRun(def *classfile.Class, name, desc string, arg int64) (int64, *VM, error) {
	v := New(DefaultOptions())
	if _, err := v.LoadClass(def); err != nil {
		return 0, v, err
	}
	r, err := v.Run(def.Name, name, desc, arg)
	return r, v, err
}

// TestClassImageSharedAcrossVMs checks that two VMs loading the same
// class content share one lowering, while a class differing in one
// constant gets its own.
func TestClassImageSharedAcrossVMs(t *testing.T) {
	lowered := func(def *classfile.Class) *jit.Unit {
		t.Helper()
		v := New(DefaultOptions())
		c, err := v.LoadClass(def)
		if err != nil {
			t.Fatal(err)
		}
		return c.Method("f", "(I)I").lowered
	}
	def := mulAddClass(t)
	first, second := lowered(def), lowered(mulAddClass(t))
	if first == nil || first != second {
		t.Fatalf("identical classes got lowerings %p and %p, want one shared", first, second)
	}
	if !imageStored(def) {
		t.Fatal("loaded class not stored")
	}
	other := mulAddClass(t)
	other.Methods[0].Consts[0] = 33
	if u := lowered(other); u == first {
		t.Fatal("a class with another constant shared the lowering")
	}
}

// TestClassImageHitAllocatesNothing checks that keying a stored class
// and finding its image allocates nothing: the key is encoded into a
// recycled buffer.
func TestClassImageHitAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	def := mulAddClass(t)
	if _, err := loadImage(def); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := loadImage(def); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a store hit allocated %v times", allocs)
	}
}

// TestClassImageDefectIsolation loads one class clean, then with the
// fused multiply-add defect armed, then disarmed again: each load must
// run the lowering made under its own defect state.
func TestClassImageDefectIsolation(t *testing.T) {
	t.Cleanup(func() { _ = jit.SetTestDefect("") })
	def := mulAddClass(t)
	for i, step := range []struct {
		defect string
		want   int64
	}{
		{"", 5*31 + 7},
		{jit.TestDefectMulAdd, 5*31 + 8},
		{"", 5*31 + 7},
	} {
		if err := jit.SetTestDefect(step.defect); err != nil {
			t.Fatal(err)
		}
		got, _, err := loadRun(def, "f", "(I)I", 5)
		if err != nil {
			t.Fatalf("load %d: %v", i, err)
		}
		if got != step.want {
			t.Fatalf("load %d (defect %q): f(5) = %d, want %d", i, step.defect, got, step.want)
		}
		if !imageStored(def) {
			t.Fatalf("load %d (defect %q): not stored", i, step.defect)
		}
	}
}

// TestClassImageVerifierFailure checks that a class the verifier
// rejects fails the same way on every load, with the verifier's own
// error, and never enters the store.
func TestClassImageVerifierFailure(t *testing.T) {
	m := sumMethod(t)
	m.MaxStack = 1 // the loop adds two words
	def := buildClass(t, "t/Bad", m)
	_, want := bytecode.VerifyClassDecoded(def)
	if want == nil {
		t.Fatal("verifier accepted the class")
	}
	for i := 0; i < 2; i++ {
		if _, _, err := loadRun(def, "sumTo", "(I)I", 3); err == nil || err.Error() != want.Error() {
			t.Fatalf("load %d: err = %v, want %v", i, err, want)
		}
		if imageStored(def) {
			t.Fatalf("load %d: a class that failed verification was stored", i)
		}
	}
}

// TestClassImageBound loads more distinct classes than the store holds
// and checks it never holds more than its bound.
func TestClassImageBound(t *testing.T) {
	for i := 0; i < classImageMax+classImageMax/2; i++ {
		v := New(DefaultOptions())
		def := buildClass(t, fmt.Sprintf("t/Bound%d", i), sumMethod(t))
		if _, err := v.LoadClass(def); err != nil {
			t.Fatal(err)
		}
		if n := images.Len(); n > classImageMax {
			t.Fatalf("after %d loads the store holds %d images, bound %d", i+1, n, classImageMax)
		}
		if !imageStored(def) {
			t.Fatalf("load %d: the class just loaded is not stored", i)
		}
	}
}

// TestClassImageUnkeyable checks that a class the encoder cannot encode
// (MaxStack above 65535) loads, runs and fails exactly as the plain load
// path does, and is never stored.
func TestClassImageUnkeyable(t *testing.T) {
	ok := sumMethod(t)
	ok.MaxStack = 70000
	def := buildClass(t, "t/WideOK", ok)
	if _, err := classfile.AppendClass(nil, def); err == nil {
		t.Fatal("the encoder accepted MaxStack 70000")
	}
	for i := 0; i < 2; i++ {
		got, _, err := loadRun(def, "sumTo", "(I)I", 10)
		if err != nil || got != 55 {
			t.Fatalf("load %d: sumTo(10) = %d, %v; want 55", i, got, err)
		}
		if imageStored(def) {
			t.Fatalf("load %d: an unkeyable class was stored", i)
		}
	}

	bad := sumMethod(t)
	bad.MaxStack = 70000
	bad.MaxLocals = 1 // the loop keeps its sum in slot 1
	badDef := buildClass(t, "t/WideBad", bad)
	_, want := bytecode.VerifyClassDecoded(badDef)
	if want == nil {
		t.Fatal("verifier accepted the class")
	}
	for i := 0; i < 2; i++ {
		if _, _, err := loadRun(badDef, "sumTo", "(I)I", 10); err == nil || err.Error() != want.Error() {
			t.Fatalf("load %d: err = %v, want %v", i, err, want)
		}
	}
}

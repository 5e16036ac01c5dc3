package instrument

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/classfile"
	"repro/internal/scenarios"
	"repro/internal/workloads"
)

// stored reports whether the rewrite store holds c's rewrite under cfg.
func stored(c *classfile.Class, cfg Config) bool {
	key, ok := rewriteKey(nil, c, cfg.withDefaults())
	if !ok {
		return false
	}
	_, hit := rewrites.Get(key)
	return hit
}

// encode returns c's classfile encoding.
func encode(t testing.TB, c *classfile.Class) []byte {
	t.Helper()
	b, err := classfile.AppendClass(nil, c)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRewriteStored: the second rewrite of equal content returns the
// stored class, which equals an unstored rewrite; another prefix or
// runtime class gets its own rewrite.
func TestRewriteStored(t *testing.T) {
	first, n1, err := Class(nativeClass(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	second, n2, err := Class(nativeClass(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if second != first || n1 != 2 || n2 != 2 {
		t.Fatalf("rewrites %p (%d wrapped) and %p (%d), want one stored class wrapping 2", first, n1, second, n2)
	}
	fresh, _, err := rewriteClass(nativeClass(t), Config{}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, first), encode(t, fresh)) {
		t.Fatal("the stored rewrite differs from a fresh one")
	}
	custom, _, err := Class(nativeClass(t), Config{Prefix: "_wct_"})
	if err != nil {
		t.Fatal(err)
	}
	if custom == first || custom.Method("_wct_compute", "(IJ)J") == nil {
		t.Fatal("a rewrite under another prefix was served the default one")
	}
	if !stored(nativeClass(t), Config{}) || !stored(nativeClass(t), Config{Prefix: "_wct_"}) {
		t.Fatal("a verified rewrite was not stored")
	}
}

// TestRewriteStoreSkipsPerMethod: with a method registry every call
// rewrites afresh, with ids from its own registry, even when the
// registry-free rewrite of the same class is stored.
func TestRewriteStoreSkipsPerMethod(t *testing.T) {
	plain, _, err := Class(nativeClass(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	n := rewrites.Len()
	var outs []*classfile.Class
	for i := 0; i < 2; i++ {
		reg := NewRegistry()
		out, wrapped, err := Class(nativeClass(t), Config{Methods: reg})
		if err != nil {
			t.Fatal(err)
		}
		if out == plain || wrapped != 2 || reg.Len() != 2 {
			t.Fatalf("per-method rewrite %d: %d wrapped, %d ids, shared=%v", i, wrapped, reg.Len(), out == plain)
		}
		text, _ := bytecode.Disassemble(out.Method("compute", "(IJ)J"))
		if !strings.Contains(text, J2NBeginM) {
			t.Fatalf("per-method rewrite %d lacks %s:\n%s", i, J2NBeginM, text)
		}
		outs = append(outs, out)
	}
	if outs[0] == outs[1] {
		t.Fatal("two per-method rewrites share a class")
	}
	if rewrites.Len() != n {
		t.Fatalf("per-method rewrites stored: %d entries, was %d", rewrites.Len(), n)
	}
}

// badNativeClass has a native method beside a method the verifier
// rejects, so its rewrite fails verification.
func badNativeClass(t testing.TB) *classfile.Class {
	t.Helper()
	a := bytecode.NewAssembler()
	a.Const(1)
	a.Const(2)
	a.Add()
	a.IReturn()
	m, err := a.FinishMethod("two", "()J", classfile.AccStatic, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.MaxStack = 1 // the body pushes two words
	return &classfile.Class{Name: "w/Bad", Methods: []*classfile.Method{m,
		{Name: "n", Desc: "()V", Flags: classfile.AccStatic | classfile.AccNative}}}
}

// TestRewriteFailingVerificationNotStored: a rewrite the verifier
// rejects fails the same way on every call and never enters the store;
// so does an input the encoder cannot key, which still rewrites.
func TestRewriteFailingVerificationNotStored(t *testing.T) {
	bad := badNativeClass(t)
	_, _, want := rewriteClass(bad, Config{}.withDefaults())
	if want == nil || !strings.Contains(want.Error(), "fails verification") {
		t.Fatalf("unstored rewrite: err = %v, want a verification failure", want)
	}
	for i := 0; i < 2; i++ {
		if _, _, err := Class(bad, Config{}); err == nil || err.Error() != want.Error() {
			t.Fatalf("call %d: err = %v, want %v", i, err, want)
		}
		if stored(bad, Config{}) {
			t.Fatalf("call %d: a rewrite that failed verification was stored", i)
		}
	}

	wide := nativeClass(t)
	wide.Methods[0].MaxStack = 70000
	if _, err := classfile.AppendClass(nil, wide); err == nil {
		t.Fatal("the encoder accepted MaxStack 70000")
	}
	n := rewrites.Len()
	for i := 0; i < 2; i++ {
		if _, wrapped, err := Class(wide, Config{}); err != nil || wrapped != 2 {
			t.Fatalf("call %d: unkeyable class: %d wrapped, %v", i, wrapped, err)
		}
	}
	if rewrites.Len() != n {
		t.Fatal("an unkeyable class was stored")
	}
}

// TestRuntimeClassDefShared: the default runtime class is built once;
// another runtime class name gets a class of its own.
func TestRuntimeClassDefShared(t *testing.T) {
	if RuntimeClassDef(Config{}) != RuntimeClassDef(Config{Prefix: "_p_"}) {
		t.Fatal("the default runtime class was built twice")
	}
	custom := RuntimeClassDef(Config{RuntimeClass: "my/RT"})
	if custom.Name != "my/RT" || len(custom.Methods) != 6 {
		t.Fatalf("custom runtime class %s with %d methods", custom.Name, len(custom.Methods))
	}
}

// FuzzInstrumentClass rewrites any class classfile.ReadClass accepts
// three ways — a store miss, a store hit and an unstored rewrite — under
// the default and a custom configuration. All three must agree: the
// same error, or the same wrapped count and byte-identical encodings.
// A rewrite that failed must not be stored. The seeds are the paper
// and all-family programs, hand-built native classes and one whose
// rewrite fails verification.
func FuzzInstrumentClass(f *testing.F) {
	seen := map[string]bool{}
	for _, profile := range []string{"paper", "all"} {
		scs, err := scenarios.Profile(profile)
		if err != nil {
			f.Fatal(err)
		}
		for _, sc := range scs {
			prog, err := workloads.BuildWorkload(sc.Workload.Scale(8))
			if err != nil {
				f.Fatal(err)
			}
			for _, c := range prog.Classes {
				if b := encode(f, c); !seen[string(b)] {
					seen[string(b)] = true
					f.Add(b)
				}
			}
		}
	}
	f.Add(encode(f, nativeClass(f)))
	f.Add(encode(f, badNativeClass(f)))
	f.Add(encode(f, RuntimeClassDef(Config{})))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := classfile.ReadClass(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, cfg := range []Config{{}, {Prefix: "_f_", RuntimeClass: "f/RT"}} {
			rewrites.Clear()
			miss, nMiss, errMiss := Class(c, cfg)
			hit, nHit, errHit := Class(c, cfg)
			var fresh *classfile.Class
			var nFresh int
			var errFresh error
			if full := cfg.withDefaults(); c.Name == full.RuntimeClass || !c.HasNativeMethod() || alreadyInstrumented(c, full.Prefix) {
				fresh = c
			} else {
				fresh, nFresh, errFresh = rewriteClass(c, full)
			}
			if errFresh != nil {
				if errMiss == nil || errHit == nil || errMiss.Error() != errFresh.Error() || errHit.Error() != errFresh.Error() {
					t.Fatalf("unstored rewrite failed (%v), stored path: miss %v, hit %v", errFresh, errMiss, errHit)
				}
				if stored(c, cfg) {
					t.Fatal("a failed rewrite was stored")
				}
				continue
			}
			if errMiss != nil || errHit != nil {
				t.Fatalf("unstored rewrite succeeded, stored path: miss %v, hit %v", errMiss, errHit)
			}
			if nMiss != nFresh || nHit != nFresh {
				t.Fatalf("wrapped: miss %d, hit %d, unstored %d", nMiss, nHit, nFresh)
			}
			want := encode(t, fresh)
			if !bytes.Equal(encode(t, miss), want) || !bytes.Equal(encode(t, hit), want) {
				t.Fatal("stored and unstored rewrites encode differently")
			}
		}
	})
}

package classfile_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"

	"repro/internal/classfile"
	"repro/internal/workloads"
)

// suiteClasses builds the classes of the eight paper benchmarks at
// scale 8.
func suiteClasses(t *testing.T) []*classfile.Class {
	t.Helper()
	var all []*classfile.Class
	for _, b := range workloads.Suite() {
		p, err := workloads.Build(b.Spec.Scale(8))
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, p.Classes...)
	}
	return all
}

func sum(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// TestEncodingBytesPinned pins the bytes WriteClass and WriteArchive
// produce for the paper suite, so a change to the encoder cannot change
// its output unnoticed.
func TestEncodingBytesPinned(t *testing.T) {
	all := suiteClasses(t)
	var each bytes.Buffer
	for _, c := range all {
		if err := classfile.WriteClass(&each, c); err != nil {
			t.Fatal(err)
		}
		b, err := classfile.AppendClass([]byte("prefix"), c)
		if err != nil {
			t.Fatal(err)
		}
		var one bytes.Buffer
		if err := classfile.WriteClass(&one, c); err != nil {
			t.Fatal(err)
		}
		if string(b) != "prefix"+one.String() {
			t.Fatalf("%s: AppendClass differs from WriteClass", c.Name)
		}
	}
	var arch bytes.Buffer
	if err := classfile.WriteArchive(&arch, all); err != nil {
		t.Fatal(err)
	}
	var many []*classfile.Class
	for i := 0; i < 20; i++ {
		many = append(many, all...)
	}
	var big bytes.Buffer
	if err := classfile.WriteArchive(&big, many); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ name, got, want string }{
		{"classes", sum(each.Bytes()), "a25cd700206f9ad4b7ea2c83c5714cbf4c152073ec544a313d5f7a2a045cc15f"},
		{"archive", sum(arch.Bytes()), "fb963bd4ca3d42bb96d92da0e3d984f521e84d32acf34e6a7996e760266d0e55"},
		{"archive x20", sum(big.Bytes()), "d94b597e276ebd21bc4b55df659c12162681bde170bad1e3de2865b7f84e30d3"},
	} {
		if c.got != c.want {
			t.Errorf("%s: sha256 %s, want %s", c.name, c.got, c.want)
		}
	}
	got, err := classfile.ReadArchive(&big)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, many) {
		t.Fatal("archive round trip mismatch")
	}
}

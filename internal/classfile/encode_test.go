package classfile

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"
)

func TestClassRoundTrip(t *testing.T) {
	c := testClass()
	var buf bytes.Buffer
	if err := WriteClass(&buf, c); err != nil {
		t.Fatal(err)
	}
	got, err := ReadClass(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c, got) {
		t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v", c, got)
	}
}

func TestClassRoundTripEmptyTables(t *testing.T) {
	c := &Class{
		Name: "empty/C",
		Methods: []*Method{
			{
				Name: "m", Desc: "()V", Flags: AccStatic,
				MaxStack: 0, MaxLocals: 0, Code: []byte{0x00},
			},
		},
	}
	var buf bytes.Buffer
	if err := WriteClass(&buf, c); err != nil {
		t.Fatal(err)
	}
	got, err := ReadClass(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "empty/C" || len(got.Methods) != 1 {
		t.Fatalf("got %+v", got)
	}
	m := got.Methods[0]
	if len(m.Refs) != 0 || len(m.Consts) != 0 || len(m.Handlers) != 0 {
		t.Fatalf("tables not empty: %+v", m)
	}
}

func TestReadClassBadMagic(t *testing.T) {
	if _, err := ReadClass(bytes.NewReader([]byte{0, 0, 0, 0, 0, 2})); err == nil {
		t.Fatal("expected bad magic error")
	}
}

func TestReadClassBadVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteClass(&buf, testClass()); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[5] = 0xEE // corrupt version
	if _, err := ReadClass(bytes.NewReader(b)); err == nil {
		t.Fatal("expected version error")
	}
}

func TestReadClassTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteClass(&buf, testClass()); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	for _, cut := range []int{1, 4, 6, 10, len(b) / 2, len(b) - 1} {
		if _, err := ReadClass(bytes.NewReader(b[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestReadClassRejectsInvalidDecoded(t *testing.T) {
	// Encode a class that decodes structurally but fails validation:
	// a native method with code cannot be produced through WriteClass of a
	// valid class, so hand-patch flags after encoding. Instead, encode a
	// valid class and corrupt the descriptor string bytes.
	c := &Class{
		Name: "x/C",
		Methods: []*Method{{
			Name: "m", Desc: "()V", Flags: AccStatic, Code: []byte{0},
		}},
	}
	var buf bytes.Buffer
	if err := WriteClass(&buf, c); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	idx := bytes.Index(b, []byte("()V"))
	if idx < 0 {
		t.Fatal("descriptor not found in encoding")
	}
	b[idx] = 'Q'
	if _, err := ReadClass(bytes.NewReader(b)); err == nil {
		t.Fatal("corrupted descriptor accepted")
	}
}

func TestArchiveRoundTrip(t *testing.T) {
	a := testClass()
	b := testClass()
	b.Name = "demo/Other"
	var buf bytes.Buffer
	if err := WriteArchive(&buf, []*Class{a, b}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadArchive(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("archive decoded %d classes, want 2", len(got))
	}
	if !reflect.DeepEqual(a, got[0]) || !reflect.DeepEqual(b, got[1]) {
		t.Fatal("archive round trip mismatch")
	}
}

func TestArchiveEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteArchive(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadArchive(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d classes, want 0", len(got))
	}
}

func TestArchiveBadMagic(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteClass(&buf, testClass()); err != nil {
		t.Fatal(err)
	}
	// A single-class stream is not an archive.
	if _, err := ReadArchive(&buf); err == nil {
		t.Fatal("expected bad magic error")
	}
}

func TestWriteClassRejectsOversizedStrings(t *testing.T) {
	c := testClass()
	big := make([]byte, maxStringLen)
	for i := range big {
		big[i] = 'a'
	}
	c.Name = string(big)
	var buf bytes.Buffer
	if err := WriteClass(&buf, c); err == nil {
		t.Fatal("oversized name accepted")
	}
}

// Property: any class built from generated method shapes survives an
// encode/decode round trip unchanged.
func TestRoundTripProperty(t *testing.T) {
	f := func(name string, code []byte, consts []int64, nHandlers uint8) bool {
		if name == "" || len(name) >= 1024 {
			name = "gen/C"
		}
		if len(code) == 0 {
			code = []byte{0}
		}
		if len(code) > 4096 {
			code = code[:4096]
		}
		if len(consts) > 64 {
			consts = consts[:64]
		}
		if len(consts) == 0 {
			consts = nil // decoder yields nil for empty tables
		}
		m := &Method{
			Name: "m", Desc: "(IJ)I", Flags: AccStatic,
			MaxStack: 4, MaxLocals: 2,
			Code: code, Consts: consts,
		}
		nh := int(nHandlers % 4)
		for i := 0; i < nh; i++ {
			m.Handlers = append(m.Handlers, ExceptionEntry{
				StartPC:   0,
				EndPC:     uint16(len(code)),
				HandlerPC: 0,
			})
		}
		c := &Class{Name: name, Methods: []*Method{m}}
		if c.Validate() != nil {
			return true // skip shapes that are not valid classes
		}
		var buf bytes.Buffer
		if err := WriteClass(&buf, c); err != nil {
			return false
		}
		got, err := ReadClass(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(c, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// A member count that does not fit its u16 field is an error, not a
// truncated count.
func TestWriteClassRejectsMemberCountOverflow(t *testing.T) {
	c := testClass()
	c.Fields = make([]*Field, 1<<16)
	for i := range c.Fields {
		c.Fields[i] = &Field{Name: "f"}
	}
	var buf bytes.Buffer
	if err := WriteClass(&buf, c); err == nil {
		t.Fatal("65536 fields encoded")
	}
	c.Fields = c.Fields[:1<<16-1]
	if err := WriteClass(&buf, c); err != nil {
		t.Fatalf("65535 fields: %v", err)
	}
}

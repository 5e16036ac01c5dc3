package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

type payload struct {
	Cell   string  `json:"cell"`
	Cycles uint64  `json:"cycles"`
	Thpt   float64 `json:"thpt"`
}

func testPayload(i int) payload {
	return payload{Cell: fmt.Sprintf("cell-%d", i), Cycles: uint64(i) * 1000003, Thpt: 3.25 * float64(i)}
}

// TestCellKeyDeterministic proves equal identities hash equal and any
// field change moves the key.
func TestCellKeyDeterministic(t *testing.T) {
	type identity struct {
		Scenario string `json:"scenario"`
		Agent    string `json:"agent"`
		Engine   string `json:"engine"`
		Scale    int    `json:"scale"`
	}
	a := identity{"compress", "jvmti", "jit", 8}
	k1, err := CellKey(a)
	if err != nil {
		t.Fatal(err)
	}
	k2, _ := CellKey(a)
	if k1 != k2 {
		t.Fatal("same identity must give the same key")
	}
	if len(k1) != 64 {
		t.Fatalf("key %q is not a hex sha256", k1)
	}
	for _, b := range []identity{
		{"jess", "jvmti", "jit", 8},
		{"compress", "jni", "jit", 8},
		{"compress", "jvmti", "interp", 8},
		{"compress", "jvmti", "jit", 4},
	} {
		if k, _ := CellKey(b); k == k1 {
			t.Errorf("identity %+v collides with %+v", b, a)
		}
	}
}

// TestCellKeyCarriesPayloadFormat proves the payload format is part of
// the key: the same identity under another format string hashes to
// another key, so entries an older payload format wrote are misses.
func TestCellKeyCarriesPayloadFormat(t *testing.T) {
	id := struct {
		Scenario string `json:"scenario"`
	}{"compress"}
	k, err := CellKey(id)
	if err != nil {
		t.Fatal(err)
	}
	if same, _ := cellKey(PayloadFormat, id); same != k {
		t.Fatalf("CellKey %s is not the key under PayloadFormat (%s)", k, same)
	}
	for _, format := range []string{"", "jvmsim-payload-v1", PayloadFormat + "x"} {
		if other, _ := cellKey(format, id); other == k {
			t.Errorf("format %q gives the same key as %q", format, PayloadFormat)
		}
	}
}

// TestCellKeyBoundaries proves the encoding keeps field and element
// boundaries: values whose concatenated bytes agree must still differ.
func TestCellKeyBoundaries(t *testing.T) {
	type strs struct{ A, B string }
	type ints struct{ S []int }
	type lists struct{ A, B []string }
	for _, pair := range [][2]any{
		{strs{"ab", "c"}, strs{"a", "bc"}},
		{strs{"", "a"}, strs{"a", ""}},
		{ints{[]int{}}, ints{[]int{0}}},
		{ints{nil}, ints{[]int{}}},
		{lists{[]string{"a"}, nil}, lists{nil, []string{"a"}}},
		{lists{[]string{"a", ""}, nil}, lists{[]string{"a"}, []string{}}},
	} {
		a, err := CellKey(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		if b, _ := CellKey(pair[1]); a == b {
			t.Errorf("%#v and %#v share key %s", pair[0], pair[1], a)
		}
	}
}

// TestCellKeySchema proves the key carries the identity's schema: the
// same values under renamed, reordered or retyped fields hash apart,
// and fields encoding/json leaves out are not keyed.
func TestCellKeySchema(t *testing.T) {
	type base struct {
		Agent string
		Scale int
	}
	type renamed struct {
		Tool  string
		Scale int
	}
	type reordered struct {
		Scale int
		Agent string
	}
	type retyped struct {
		Agent string
		Scale uint
	}
	type unkeyed struct {
		Agent  string
		Scale  int
		Note   string `json:"-"`
		hidden []int
	}
	want, err := CellKey(base{"ipa", 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []any{renamed{"ipa", 8}, reordered{8, "ipa"}, retyped{"ipa", 8}} {
		if k, _ := CellKey(id); k == want {
			t.Errorf("%T shares the key of %T", id, base{})
		}
	}
	a, _ := CellKey(unkeyed{"ipa", 8, "a", nil})
	b, _ := CellKey(unkeyed{"ipa", 8, "b", []int{1}})
	if a != b {
		t.Error("a field tagged \"-\" or unexported moved the key")
	}
}

// TestCellKeyRejectsUnkeyable proves a kind without a key encoding is an
// error wherever it sits in the identity, never a skipped field.
func TestCellKeyRejectsUnkeyable(t *testing.T) {
	type inner struct{ M map[string]int }
	one := 1
	for _, id := range []any{
		struct{ M map[string]int }{},
		struct{ P *int }{&one},
		struct{ I any }{1},
		struct{ F func() }{},
		struct{ C chan int }{},
		struct{ X float64 }{},
		struct{ A [2]int }{},
		struct{ S []inner }{},
		struct{ inner }{},
		nil,
	} {
		if k, err := CellKey(id); err == nil {
			t.Errorf("%T keyed as %s, want an error", id, k)
		}
	}
	type node struct{ Kids []node }
	if _, err := CellKey(node{}); err == nil || !strings.Contains(err.Error(), "recursive") {
		t.Errorf("recursive type: err %v, want a recursive-type error", err)
	}
}

// jsonKey is the key derivation of payload format v4 and before: the
// hex sha256 of the format and the identity's JSON line.
func jsonKey(t *testing.T, format string, identity any) string {
	t.Helper()
	h := sha256.New()
	io.WriteString(h, format)
	if err := json.NewEncoder(h).Encode(identity); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fuzzPhase, fuzzInner and fuzzID are an identity shaped like the real
// ones: an embedded struct, nested structs in a slice, omitempty and
// plain slices, a byte slice, and fields JSON leaves out.
type fuzzPhase struct {
	Kind  string `json:"kind"`
	Calls int    `json:"calls,omitempty"`
	On    bool   `json:"on,omitempty"`
}

type fuzzInner struct {
	Name string `json:"name"`
	N    uint64 `json:"n,omitempty"`
}

type fuzzID struct {
	fuzzInner
	Agent  string      `json:"agent"`
	Scale  int         `json:"scale"`
	Small  int8        `json:"small"`
	Seq    []int       `json:"seq,omitempty"`
	Tags   []string    `json:"tags"`
	Phases []fuzzPhase `json:"phases"`
	Raw    []byte      `json:"raw"`
	Note   string      `json:"-"`
	hidden int
}

// fuzzReader builds a fuzzID from fuzz bytes; once they run out it
// reads zeros.
type fuzzReader []byte

func (r *fuzzReader) byte() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

func (r *fuzzReader) str() string {
	n := int(r.byte() % 8)
	var s []byte
	for i := 0; i < n; i++ {
		s = append(s, r.byte())
	}
	return string(s)
}

// length reads a slice length; -1 means nil.
func (r *fuzzReader) length() int { return int(r.byte()%5) - 1 }

func (r *fuzzReader) id() fuzzID {
	id := fuzzID{
		fuzzInner: fuzzInner{Name: r.str(), N: uint64(r.byte()) << (r.byte() % 57)},
		Agent:     r.str(),
		Scale:     int(int8(r.byte())) << (r.byte() % 50),
		Small:     int8(r.byte()),
		Note:      r.str(),
		hidden:    int(r.byte()),
	}
	if n := r.length(); n >= 0 {
		id.Seq = make([]int, n)
		for i := range id.Seq {
			id.Seq[i] = int(int8(r.byte()))
		}
	}
	if n := r.length(); n >= 0 {
		id.Tags = make([]string, n)
		for i := range id.Tags {
			id.Tags[i] = r.str()
		}
	}
	if n := r.length(); n >= 0 {
		id.Phases = make([]fuzzPhase, n)
		for i := range id.Phases {
			id.Phases[i] = fuzzPhase{Kind: r.str(), Calls: int(int8(r.byte())), On: r.byte()%2 == 1}
		}
	}
	if n := r.length(); n >= 0 {
		id.Raw = make([]byte, n)
		for i := range id.Raw {
			id.Raw[i] = r.byte()
		}
	}
	return id
}

// FuzzCellKey checks the binary key against the JSON key derivation it
// replaced: two identities whose JSON keys differ have different keys,
// and equal identities have equal keys. The converse does not hold:
// JSON maps invalid UTF-8 to U+FFFD and omits an empty omitempty slice,
// where the binary encoding keeps every byte and tells nil from empty.
func FuzzCellKey(f *testing.F) {
	// zero reads every field up to Seq as zero and Seq as nil; the bytes
	// after it set Seq, Tags, Phases and Raw.
	zero := func(tail ...byte) []byte { return append(make([]byte, 9), tail...) }
	f.Add([]byte{2, 'a', 'b'}, []byte{1, 'a'})
	f.Add([]byte{0, 0, 0, 1, 0xff}, []byte{0, 0, 0, 1, 0xfe})
	f.Add(zero(1), zero(2, 0))
	f.Add(zero(0, 0), zero(0, 1))
	f.Add(zero(0, 3, 2, 'a', 'b', 1, 'c'), zero(0, 3, 1, 'a', 2, 'b', 'c'))
	f.Add(zero(0, 0, 2, 1, 'k', 3, 1), zero(0, 0, 2, 1, 'k', 3, 0))
	f.Add(zero(0, 0, 0, 1), zero(0, 0, 0, 0))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		ra, rb := fuzzReader(a), fuzzReader(b)
		x, y := ra.id(), rb.id()
		kx, err := CellKey(x)
		if err != nil {
			t.Fatal(err)
		}
		ky, err := CellKey(y)
		if err != nil {
			t.Fatal(err)
		}
		if again, _ := CellKey(x); again != kx {
			t.Fatalf("%#v keyed %s, then %s", x, kx, again)
		}
		if reflect.DeepEqual(x, y) && kx != ky {
			t.Fatalf("equal identities %#v keyed %s and %s", x, kx, ky)
		}
		if jsonKey(t, PayloadFormat, x) != jsonKey(t, PayloadFormat, y) && kx == ky {
			t.Fatalf("%#v and %#v differ in JSON but share key %s", x, y, kx)
		}
	})
}

// TestCanonicalPayloadRoundTrip proves the canonical encoding is a fixed
// point: decoding a payload and re-encoding it gives the same bytes, the
// property byte-level cache verification relies on.
func TestCanonicalPayloadRoundTrip(t *testing.T) {
	for i := 0; i < 8; i++ {
		raw, err := CanonicalPayload(testPayload(i))
		if err != nil {
			t.Fatal(err)
		}
		var back payload
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		again, err := CanonicalPayload(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, again) {
			t.Fatalf("payload %d: %s re-encodes as %s", i, raw, again)
		}
	}
	if _, err := CanonicalPayload(func() {}); err == nil {
		t.Fatal("unencodable payload accepted")
	}
}

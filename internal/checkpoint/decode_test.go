package checkpoint_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/checkpoint"
	"repro/internal/harness"
	"repro/internal/jit"
	"repro/internal/resultcache"
	"repro/internal/scenarios"
)

// decodeLeaf, decodeNode and decodeKinds cover every kind DecodePayload
// supports: signed and unsigned integers of each size, both float sizes,
// bool, string, a pointer to a struct holding a pointer, nil, empty and
// filled slices, omitempty members and fields encoding/json leaves out.
type decodeLeaf struct {
	Name string `json:"name"`
	N    uint16 `json:"n,omitempty"`
}

type decodeNode struct {
	Leaf  *decodeLeaf  `json:"leaf"`
	Leafs []decodeLeaf `json:"leafs,omitempty"`
	Ptrs  []*int32     `json:"ptrs"`
}

type decodeKinds struct {
	I       int
	I8      int8
	I16     int16
	I32     int32
	I64     int64
	U       uint
	U8      uint8
	U16     uint16
	U32     uint32
	U64     uint64
	Uptr    uintptr
	F32     float32
	F64     float64
	B       bool
	S       string `json:"s"`
	Node    *decodeNode
	Nil     []int
	Empty   []string
	Opt     int64   `json:"opt,omitempty"`
	OptS    string  `json:",omitempty"`
	OptF    float64 `json:"optf,omitempty"`
	Skipped string  `json:"-"`
	Dash    int     `json:"-,"`
	hidden  int
}

// kindsValues are decodeKinds values at the edges of each kind.
func kindsValues() []decodeKinds {
	seven := int32(-7)
	return []decodeKinds{
		{},
		{
			I: math.MinInt64, I8: math.MinInt8, I16: math.MinInt16, I32: math.MinInt32, I64: math.MinInt64,
			U: math.MaxUint64, U8: math.MaxUint8, U16: math.MaxUint16, U32: math.MaxUint32, U64: math.MaxUint64,
			Uptr: 1 << 40, F32: math.MaxFloat32, F64: -math.SmallestNonzeroFloat64, B: true,
			S:    "tab\tquote\"back\\slash <&>   é 😀 \x01",
			Node: &decodeNode{Leaf: &decodeLeaf{Name: "leaf", N: 9}, Leafs: []decodeLeaf{{}, {Name: "b"}}, Ptrs: []*int32{nil, &seven}},
			Nil:  nil, Empty: []string{}, Opt: -1, OptS: "x", OptF: 1e21, Dash: 3,
		},
		{
			I: math.MaxInt64, I8: math.MaxInt8, I16: math.MaxInt16, I32: math.MaxInt32, I64: math.MaxInt64,
			F32: 1.5e-45, F64: 123456789.125, Node: &decodeNode{Ptrs: []*int32{}},
			Nil: []int{0, -0, 1}, Empty: []string{""}, OptF: 1e-7,
		},
	}
}

// textPayloads are rendered-text payloads: HTML-escaped bytes, control
// characters, non-ASCII text, and invalid UTF-8, which json.Marshal
// writes as �.
var textPayloads = []string{
	"",
	"Table I\n  <init> & co.\tmtrt\r\n",
	"\x00\x1f\x7f    naïve 日本語 😀",
	"bad \xff\xfe utf-8 \xc3",
	strings.Repeat("compress 12.5% native\n", 40),
}

var (
	realOnce     sync.Once
	realPayloads [][]byte
	realErr      error
)

// measurementPayloads returns every Measurement payload the paper grid
// (none, spa, ipa) and the all-family campaign × (none, ipa) store at
// scale 8 on the interp and jit engines, read back from a result cache
// as Resolve's Put wrote them.
func measurementPayloads(t testing.TB) [][]byte {
	t.Helper()
	realOnce.Do(func() { realPayloads, realErr = runGrids() })
	if realErr != nil {
		t.Fatal(realErr)
	}
	return realPayloads
}

func runGrids() ([][]byte, error) {
	dir, err := os.MkdirTemp("", "decode-payloads-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cache, err := resultcache.Open(dir, resultcache.ModeRW)
	if err != nil {
		return nil, err
	}
	paper, err := scenarios.Profile("paper")
	if err != nil {
		return nil, err
	}
	all, err := scenarios.Profile("all")
	if err != nil {
		return nil, err
	}
	for _, engine := range []jit.Engine{jit.EngineInterp, jit.EngineJIT} {
		cfg := harness.DefaultConfig()
		cfg.Scale = 8
		cfg.Opts.Tier = engine
		cfg.Cache = cache
		for _, camp := range []harness.Campaign{
			{Scenarios: paper, Agents: []string{"none", "spa", "ipa"}, Config: cfg},
			{Scenarios: all, Agents: []string{"none", "ipa"}, Config: cfg},
		} {
			res, err := camp.Run(context.Background(), nil)
			if err != nil {
				return nil, err
			}
			if res.Failed != 0 {
				return nil, fmt.Errorf("%d cells failed", res.Failed)
			}
		}
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*", "*"))
	if err != nil {
		return nil, err
	}
	var out [][]byte
	for _, e := range entries {
		raw, ok := cache.Get(filepath.Base(e))
		if !ok {
			return nil, os.ErrNotExist
		}
		out = append(out, raw)
	}
	return out, nil
}

// checkDecode is the differential check of one payload type T against
// json.Unmarshal into a zero value: whenever DecodePayload accepts raw,
// json.Unmarshal accepts it with a DeepEqual value; and whenever
// json.Unmarshal accepts raw, the canonical encoding of its value is
// accepted and re-encodes to the same bytes.
func checkDecode[T any](t *testing.T, raw []byte) {
	t.Helper()
	var want T
	wantErr := json.Unmarshal(raw, &want)
	var got T
	if err := checkpoint.DecodePayload(raw, &got); err == nil {
		if wantErr != nil {
			t.Fatalf("%T: accepted %q, which json.Unmarshal rejects: %v", got, raw, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%T: %q decodes as %#v; json.Unmarshal reads %#v", got, raw, got, want)
		}
	}
	if wantErr != nil {
		return
	}
	canonical, err := checkpoint.CanonicalPayload(want)
	if err != nil {
		t.Fatal(err)
	}
	var back T
	if err := checkpoint.DecodePayload(canonical, &back); err != nil {
		t.Fatalf("%T: rejected the canonical payload %q: %v", back, canonical, err)
	}
	again, err := checkpoint.CanonicalPayload(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, canonical) {
		t.Fatalf("%T: %q re-encodes as %q", back, canonical, again)
	}
}

// FuzzDecodePayload runs the differential check on harness.Measurement,
// string and decodeKinds, seeded with the real payloads of the paper
// grid and the all-family campaign, rendered-text payloads and
// decodeKinds at the edges of each kind.
func FuzzDecodePayload(f *testing.F) {
	for _, raw := range measurementPayloads(f) {
		f.Add(raw)
	}
	for _, s := range textPayloads {
		raw, err := checkpoint.CanonicalPayload(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add([]byte(raw))
	}
	for _, k := range kindsValues() {
		raw, err := checkpoint.CanonicalPayload(k)
		if err != nil {
			f.Fatal(err)
		}
		f.Add([]byte(raw))
	}
	f.Add([]byte(`"😀 \ud800 \udc00A \ud800\n é\/"`))
	f.Add([]byte(`{"I":1e3,"I8":-0,"U":-1,"F32":1e39,"F64":-0.0e-0}`))
	f.Add([]byte(`{"Benchmark":"x", "Agent":0}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkDecode[harness.Measurement](t, raw)
		checkDecode[string](t, raw)
		checkDecode[decodeKinds](t, raw)
	})
}

// TestDecodePayloadRealPayloads: every Measurement payload of the paper
// grid and the all-family campaign, on both engines, decodes to
// json.Unmarshal's value and re-encodes byte for byte; so do
// rendered-text payloads and decodeKinds at the edges of each kind.
func TestDecodePayloadRealPayloads(t *testing.T) {
	payloads := measurementPayloads(t)
	all, err := scenarios.Profile("all")
	if err != nil {
		t.Fatal(err)
	}
	// The all-family campaign's none and ipa cells on both engines, at
	// least; the paper grid adds its spa cells.
	if len(payloads) <= 4*len(all) {
		t.Fatalf("%d payloads from %d scenarios, want the grids' cells on both engines", len(payloads), len(all))
	}
	// decode decodes raw into v, checks v against json.Unmarshal's
	// value, and returns v's canonical encoding.
	decode := func(raw []byte, v any) []byte {
		t.Helper()
		if err := checkpoint.DecodePayload(raw, v); err != nil {
			t.Fatalf("%s: %v", raw, err)
		}
		want := reflect.New(reflect.TypeOf(v).Elem())
		if err := json.Unmarshal(raw, want.Interface()); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(v, want.Interface()) {
			t.Fatalf("%s: decoded %+v; json.Unmarshal reads %+v", raw, v, want.Interface())
		}
		again, err := checkpoint.CanonicalPayload(v)
		if err != nil {
			t.Fatal(err)
		}
		return again
	}
	roundTrip := func(raw []byte, v any) {
		t.Helper()
		if again := decode(raw, v); !bytes.Equal(again, raw) {
			t.Fatalf("%s re-encodes as %s", raw, again)
		}
	}
	reports := 0
	for _, raw := range payloads {
		var m harness.Measurement
		roundTrip(raw, &m)
		if m.Report != nil {
			reports++
		}
	}
	if reports == 0 || reports == len(payloads) {
		t.Fatalf("%d of %d payloads carry a report, want some but not all", reports, len(payloads))
	}
	for _, s := range textPayloads {
		raw, err := checkpoint.CanonicalPayload(s)
		if err != nil {
			t.Fatal(err)
		}
		var got string
		again := decode(raw, &got)
		if utf8.ValidString(s) {
			if got != s || !bytes.Equal(again, raw) {
				t.Fatalf("%q decodes as %q and re-encodes as %s", raw, got, again)
			}
			continue
		}
		// Each invalid byte was written as \ufffd and decodes as U+FFFD,
		// which re-encodes raw; that encoding is a fixed point.
		if !bytes.Contains(raw, []byte(`\ufffd`)) || !utf8.ValidString(got) {
			t.Fatalf("%q encodes as %s and decodes as %q", s, raw, got)
		}
		roundTrip(again, &got)
	}
	for _, k := range kindsValues() {
		raw, err := checkpoint.CanonicalPayload(k)
		if err != nil {
			t.Fatal(err)
		}
		var got decodeKinds
		roundTrip(raw, &got)
	}
}

// TestDecodePayloadTypes compiles the decoder of every payload type
// Resolve is given — a campaign cell's harness.Measurement and a
// rendered cell's string — so a field DecodePayload cannot read fails
// here, not as a miss on every hit.
func TestDecodePayloadTypes(t *testing.T) {
	for _, v := range []any{new(harness.Measurement), new(string)} {
		raw, err := checkpoint.CanonicalPayload(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkpoint.DecodePayload(raw, v); err != nil {
			t.Errorf("%T: %v", v, err)
		}
	}
}

// TestDecodePayloadOverwrites: decoding overwrites the whole value, as
// json.Unmarshal into a zero value does — absent optional members,
// null pointers and fields JSON leaves out all end up zero.
func TestDecodePayloadOverwrites(t *testing.T) {
	raw, err := checkpoint.CanonicalPayload(decodeKinds{})
	if err != nil {
		t.Fatal(err)
	}
	v := kindsValues()[1]
	v.Skipped, v.hidden = "x", 5
	if err := checkpoint.DecodePayload(raw, &v); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v, decodeKinds{}) {
		t.Fatalf("decoded into a used value: %+v, want the zero value", v)
	}
}

// TestDecodePayloadRejects pins what the decoder refuses: JSON
// json.Unmarshal would read but json.Marshal never writes, malformed
// JSON, values of the wrong kind or range, and types it has no plan
// for.
func TestDecodePayloadRejects(t *testing.T) {
	type pair struct {
		A int    `json:"a"`
		B string `json:"b,omitempty"`
	}
	for _, raw := range []string{
		``,
		`{"a":1} `,
		` {"a":1}`,
		`{"a": 1}`,
		"{\"a\":1\n}",
		`{"b":"x","a":1}`,
		`{"A":1}`,
		`{"a":1,"a":2}`,
		`{"a":1,"c":2}`,
		`{"a":1,}`,
		`{}`,
		`{"a":1}{}`,
		`{"a":01}`,
		`{"a":+1}`,
		`{"a":1.0}`,
		`{"a":1e2}`,
		`{"a":-}`,
		`{"a":99999999999999999999}`,
		`{"a":"1"}`,
		`{"a":null}`,
		`{"a":1,"b":null}`,
		`{"a":1,"b":"\x"}`,
		`{"a":1,"b":"\u12"}`,
		`{"a":1,"b":"` + "\xff" + `"}`,
		`{"a":1,"b":"` + "\n" + `"}`,
		`{"a":1,"b":"open}`,
		`null`,
	} {
		var v pair
		if err := checkpoint.DecodePayload([]byte(raw), &v); err == nil {
			t.Errorf("%q decoded as %+v", raw, v)
		}
	}
	var p pair
	if err := checkpoint.DecodePayload([]byte(`{"a":-0,"b":"<\/"}`), &p); err != nil || p != (pair{0, "</"}) {
		t.Errorf("decoded %+v, %v", p, err)
	}
	for _, raw := range []string{`[1,2,]`, `[1 ]`, `[,]`, `[1`, `1`, `[1.5]`} {
		var s []int
		if err := checkpoint.DecodePayload([]byte(raw), &s); err == nil {
			t.Errorf("%q decoded as %v", raw, s)
		}
	}
	for _, raw := range []string{`1e39`, `-1e39`, `.5`, `1.`, `1e`, `0x10`, `Infinity`, `NaN`} {
		var f float32
		if err := checkpoint.DecodePayload([]byte(raw), &f); err == nil {
			t.Errorf("%q decoded as %v", raw, f)
		}
	}
	for _, raw := range []string{`-1`, `256`} {
		var u uint8
		if err := checkpoint.DecodePayload([]byte(raw), &u); err == nil {
			t.Errorf("%q decoded as %v", raw, u)
		}
	}
	var v pair
	for _, target := range []any{nil, v, (*pair)(nil)} {
		if err := checkpoint.DecodePayload([]byte(`{"a":1}`), target); err == nil {
			t.Errorf("decoded into %#v", target)
		}
	}
}

// TestDecodePayloadUnsupportedTypes: a type outside the decoder's
// grammar is an error for every payload, naming where in the type it
// fails.
func TestDecodePayloadUnsupportedTypes(t *testing.T) {
	type embedded struct{ A int }
	type node struct{ Next *node }
	for _, c := range []struct {
		v    any
		want string
	}{
		{new(struct{ M map[string]int }), ".M: map"},
		{new(struct{ I any }), ".I: interface"},
		{new(struct{ A [2]int }), ".A: array"},
		{new(struct{ B []byte }), ".B: []uint8 encodes as base64"},
		{new(struct {
			N int `json:",string"`
		}), ".N: the ,string option"},
		{new(struct{ embedded }), ".embedded: embedded field"},
		{new(struct{ T time.Time }), "implements"},
		{new(struct{ R json.RawMessage }), "implements"},
		{new(struct {
			A int `json:"B"`
			B int
		}), `.B: second member named "B"`},
		{new(node), "recursive type"},
		{new(struct{ C complex128 }), ".C: complex128"},
	} {
		raw, _ := json.Marshal(c.v)
		err := checkpoint.DecodePayload(raw, c.v)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%T: %v, want an error naming %q", c.v, err, c.want)
		}
	}
}

// BenchmarkDecodePayload decodes one Measurement-shaped payload, the
// compress cell under IPA on the jit engine.
func BenchmarkDecodePayload(b *testing.B) {
	raw := []byte(`{"Benchmark":"compress","Agent":0,"AgentName":"ipa","MedianCycles":2914124,"MedianThroughput":131.08570534404163,` +
		`"Report":{"AgentName":"IPA","TotalBytecodeCycles":2535525,"TotalNativeCycles":139607,"JNICalls":13,"NativeMethodCalls":4584},` +
		`"Truth":{"BytecodeCycles":2623024,"NativeCycles":197160,"OverheadCycles":93940,"GCCycles":0,"NativeMethodCalls":13752,"JNICalls":13},` +
		`"Threads":1,"Runs":1,"GC":{"AllocatedArrays":382,"AllocatedWords":7640},` +
		`"Tier":{"Engine":1,"MethodsCompiled":4,"CompiledFrames":28626,"FallbackChunks":276}}`)
	var m harness.Measurement
	if err := checkpoint.DecodePayload(raw, &m); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	for b.Loop() {
		if err := checkpoint.DecodePayload(raw, &m); err != nil {
			b.Fatal(err)
		}
	}
}

// Package checkpoint is the content-addressed identity of a measurement
// cell: CellKey hashes the cell's full identity (scenario × agent ×
// engine × heap spec × scale), CanonicalPayload fixes the byte form of
// its result and DecodePayload reads that form back. Any two cells with equal keys are interchangeable
// pure-function evaluations, which is what lets the result cache
// (internal/resultcache) serve, deduplicate and crash-resume them.
package checkpoint

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sync"
)

// PayloadFormat versions the byte form of cell payloads; CellKey mixes
// it into every key. Bump it whenever a change moves a payload's
// canonical bytes (a field added, dropped or re-tagged) or the key
// derivation itself, so a cache warmed by an older binary misses instead
// of failing -cache-verify on a byte mismatch. v1 was the unversioned
// key; v2 dropped the tier's per-method rows, op-free count and zero
// counters from Measurement; v3 dropped the report's per-thread rows; v4
// dropped the tier's relink epoch, unit-cache and inline-site counters;
// v5 hashes the identity's binary encoding instead of its JSON.
const PayloadFormat = "jvmsim-payload-v5"

// CellKey content-addresses a cell: the hex sha256 of PayloadFormat, a
// digest of identity's type schema and identity's binary encoding.
// Callers put everything that determines the cell's result into identity
// — scenario workload and checks, agent, engine, effective heap spec,
// scale, run counts — so equal keys imply interchangeable results.
//
// The encoding covers exactly the fields encoding/json would: exported
// fields not tagged "-", and embedded structs. Integers are varints,
// a bool one byte, a string its length and bytes, a slice its length
// plus one (0 for nil, as JSON tells null from []) and its elements, a
// struct its fields in declaration order. The schema digest hashes each
// field's name and kind in that order, so renaming, reordering or
// retyping a field moves every key. Any other kind — maps, pointers,
// interfaces, funcs, chans, arrays, and floats, whose equality (-0, NaN)
// is not their bits' — is an error, never a skipped field.
func CellKey(identity any) (string, error) {
	return cellKey(PayloadFormat, identity)
}

// cellKey hashes format, the schema digest and the value encoding of
// identity in one buffer.
func cellKey(format string, identity any) (string, error) {
	v := reflect.ValueOf(identity)
	if !v.IsValid() {
		return "", errors.New("checkpoint: hashing cell identity: nil identity")
	}
	p := planFor(v.Type())
	if p.err != nil {
		return "", fmt.Errorf("checkpoint: hashing cell identity: %w", p.err)
	}
	bp := bufPool.Get().(*[]byte)
	b := binary.AppendUvarint((*bp)[:0], uint64(len(format)))
	b = append(b, format...)
	b = append(b, p.schema[:]...)
	b = p.encode(b, v)
	sum := sha256.Sum256(b)
	*bp = b
	bufPool.Put(bp)
	var key [2 * sha256.Size]byte
	hex.Encode(key[:], sum[:])
	return string(key[:]), nil
}

// bufPool holds the buffers cellKey encodes identities into.
var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 1<<10)
	return &b
}}

// encoder appends the encoding of v, a value of the type it was
// compiled for, to b.
type encoder func(b []byte, v reflect.Value) []byte

// plan is one identity type's compiled encoder and schema digest, or
// the reason the type cannot be keyed.
type plan struct {
	schema [sha256.Size]byte
	encode encoder
	err    error
}

// plans caches a plan per identity type (reflect.Type → *plan). A plan
// is a pure function of its type, so sharing it across callers and
// tests changes no result.
var plans sync.Map

// planFor returns t's plan, compiling it on first use.
func planFor(t reflect.Type) *plan {
	if p, ok := plans.Load(t); ok {
		return p.(*plan)
	}
	var schema []byte
	enc, err := compile(t, t.String(), &schema, map[reflect.Type]bool{})
	p := &plan{schema: sha256.Sum256(schema), encode: enc, err: err}
	actual, _ := plans.LoadOrStore(t, p)
	return actual.(*plan)
}

// compile returns t's encoder and appends t's schema — its kind, and a
// struct's field names and schemas in order — to schema. path names t's
// place in the identity for errors; open holds the struct types being
// compiled, since a recursive type has no finite plan.
func compile(t reflect.Type, path string, schema *[]byte, open map[reflect.Type]bool) (encoder, error) {
	*schema = append(*schema, t.Kind().String()...)
	switch t.Kind() {
	case reflect.Bool:
		return func(b []byte, v reflect.Value) []byte {
			if v.Bool() {
				return append(b, 1)
			}
			return append(b, 0)
		}, nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return func(b []byte, v reflect.Value) []byte { return binary.AppendVarint(b, v.Int()) }, nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return func(b []byte, v reflect.Value) []byte { return binary.AppendUvarint(b, v.Uint()) }, nil
	case reflect.String:
		return func(b []byte, v reflect.Value) []byte {
			s := v.String()
			return append(binary.AppendUvarint(b, uint64(len(s))), s...)
		}, nil
	case reflect.Slice:
		*schema = append(*schema, '[')
		elem, err := compile(t.Elem(), path+"[]", schema, open)
		*schema = append(*schema, ']')
		if err != nil {
			return nil, err
		}
		return func(b []byte, v reflect.Value) []byte {
			if v.IsNil() {
				return append(b, 0)
			}
			b = binary.AppendUvarint(b, uint64(v.Len())+1)
			for i := 0; i < v.Len(); i++ {
				b = elem(b, v.Index(i))
			}
			return b
		}, nil
	case reflect.Struct:
		if open[t] {
			return nil, fmt.Errorf("%s: recursive type %s", path, t)
		}
		open[t] = true
		defer delete(open, t)
		type field struct {
			index  int
			encode encoder
		}
		var fields []field
		*schema = append(*schema, '{')
		for i := 0; i < t.NumField(); i++ {
			sf := t.Field(i)
			if sf.Tag.Get("json") == "-" || !sf.IsExported() && !(sf.Anonymous && sf.Type.Kind() == reflect.Struct) {
				continue // a field encoding/json leaves out
			}
			*schema = append(append(*schema, sf.Name...), ' ')
			enc, err := compile(sf.Type, path+"."+sf.Name, schema, open)
			if err != nil {
				return nil, err
			}
			*schema = append(*schema, ';')
			fields = append(fields, field{i, enc})
		}
		*schema = append(*schema, '}')
		return func(b []byte, v reflect.Value) []byte {
			for _, f := range fields {
				b = f.encode(b, v.Field(f.index))
			}
			return b
		}, nil
	}
	return nil, fmt.Errorf("%s: %s has no key encoding", path, t.Kind())
}

// CanonicalPayload is the canonical JSON encoding of a cell payload —
// the byte form the result cache stores. A payload round-trips
// bit-exactly between the cache and an uncached run: encoding/json is
// deterministic for struct-typed values (field order follows
// declaration, float formatting is shortest-round-trip), which is what
// makes byte-level cache verification possible at all. DecodePayload is
// its inverse: it reads back exactly the bytes this writes.
func CanonicalPayload(payload any) (json.RawMessage, error) {
	raw, err := json.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encoding payload: %w", err)
	}
	return raw, nil
}

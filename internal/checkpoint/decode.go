package checkpoint

import (
	"encoding"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// DecodePayload decodes raw, a payload in the canonical form
// CanonicalPayload writes, into v, a non-nil pointer: it is
// CanonicalPayload's inverse, and it overwrites *v completely, as
// json.Unmarshal into a zero value would.
//
// It reads exactly the grammar json.Marshal writes for v's type, through
// a decoder compiled once per type. A struct's members are the fields
// encoding/json encodes — exported, not tagged "-", under their tag
// names — in declaration order, and a field tagged omitempty (or
// omitzero) may be absent. There is no whitespace; a number must match
// the JSON number grammar and parse at its field's bit size; a string is
// valid UTF-8 with JSON escapes; a pointer is null or its value, a slice
// null or an array. Anything else — reordered, repeated, unknown or
// case-folded member names, whitespace, a value of the wrong kind — is
// an error, so every payload it accepts is one json.Unmarshal accepts
// with the same result.
//
// A type outside that grammar is an error whatever raw holds: maps,
// interfaces, arrays, byte slices, embedded structs, the ",string"
// option, recursive types, and types with their own JSON or text
// (un)marshalers.
func DecodePayload(raw []byte, v any) error {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("checkpoint: decoding payload: want a non-nil pointer, got %T", v)
	}
	p := decodePlanFor(rv.Type().Elem())
	if p.err != nil {
		return fmt.Errorf("checkpoint: decoding payload: %w", p.err)
	}
	e := rv.Elem()
	e.SetZero() // every decoder writes into a zero value
	d := decodeState{data: raw}
	err := p.decode(&d, e)
	if err == nil && d.pos != len(raw) {
		err = d.fail("data after the payload")
	}
	if err != nil {
		return fmt.Errorf("checkpoint: decoding payload: %w", err)
	}
	return nil
}

// decodeState is one decode's input and read offset.
type decodeState struct {
	data []byte
	pos  int
}

// fail reports a payload outside the canonical grammar at the read
// offset.
func (d *decodeState) fail(what string) error {
	return fmt.Errorf("offset %d: %s", d.pos, what)
}

// decoder reads one value of the type it was compiled for into v, a
// settable zero value of that type.
type decoder func(d *decodeState, v reflect.Value) error

// decodePlan is one payload type's compiled decoder, or the reason the
// type has none.
type decodePlan struct {
	decode decoder
	err    error
}

// decodePlans caches a decodePlan per payload type (reflect.Type →
// *decodePlan), like plans does CellKey's.
var decodePlans sync.Map

// decodePlanFor returns t's decode plan, compiling it on first use.
func decodePlanFor(t reflect.Type) *decodePlan {
	if p, ok := decodePlans.Load(t); ok {
		return p.(*decodePlan)
	}
	dec, err := compileDecoder(t, t.String(), map[reflect.Type]bool{})
	actual, _ := decodePlans.LoadOrStore(t, &decodePlan{decode: dec, err: err})
	return actual.(*decodePlan)
}

// customCodecs are the interfaces through which a type chooses its own
// JSON form, which DecodePayload does not read.
var customCodecs = []reflect.Type{
	reflect.TypeFor[json.Marshaler](),
	reflect.TypeFor[json.Unmarshaler](),
	reflect.TypeFor[encoding.TextMarshaler](),
	reflect.TypeFor[encoding.TextUnmarshaler](),
}

// compileDecoder returns t's decoder. path names t's place in the
// payload for errors; open holds the struct types being compiled, since
// a recursive type has no finite plan.
func compileDecoder(t reflect.Type, path string, open map[reflect.Type]bool) (decoder, error) {
	for _, c := range customCodecs {
		if t.Implements(c) || reflect.PointerTo(t).Implements(c) {
			return nil, fmt.Errorf("%s: %s implements %s", path, t, c)
		}
	}
	switch t.Kind() {
	case reflect.Bool:
		return func(d *decodeState, v reflect.Value) error {
			switch {
			case d.literal("true"):
				v.SetBool(true)
			case !d.literal("false"):
				return d.fail("want a bool")
			}
			return nil
		}, nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		bits := t.Bits()
		return numberDecoder(func(b []byte, v reflect.Value) error {
			n, err := strconv.ParseInt(string(b), 10, bits)
			v.SetInt(n)
			return err
		}), nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		bits := t.Bits()
		return numberDecoder(func(b []byte, v reflect.Value) error {
			n, err := strconv.ParseUint(string(b), 10, bits)
			v.SetUint(n)
			return err
		}), nil
	case reflect.Float32, reflect.Float64:
		bits := t.Bits()
		return numberDecoder(func(b []byte, v reflect.Value) error {
			f, err := strconv.ParseFloat(string(b), bits)
			v.SetFloat(f)
			return err
		}), nil
	case reflect.String:
		return func(d *decodeState, v reflect.Value) error {
			s, err := d.str()
			if err != nil {
				return err
			}
			v.SetString(s)
			return nil
		}, nil
	case reflect.Pointer:
		elem, err := compileDecoder(t.Elem(), path, open)
		if err != nil {
			return nil, err
		}
		return func(d *decodeState, v reflect.Value) error {
			if d.literal("null") {
				return nil
			}
			p := reflect.New(t.Elem())
			if err := elem(d, p.Elem()); err != nil {
				return err
			}
			v.Set(p)
			return nil
		}, nil
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			return nil, fmt.Errorf("%s: %s encodes as base64", path, t)
		}
		elem, err := compileDecoder(t.Elem(), path+"[]", open)
		if err != nil {
			return nil, err
		}
		return func(d *decodeState, v reflect.Value) error {
			if d.literal("null") {
				return nil
			}
			if !d.literal("[") {
				return d.fail("want an array")
			}
			v.Set(reflect.MakeSlice(t, 0, 0))
			if d.literal("]") {
				return nil
			}
			for i := 0; ; i++ {
				if i == v.Cap() {
					v.Grow(1)
				}
				v.SetLen(i + 1)
				if err := elem(d, v.Index(i)); err != nil {
					return err
				}
				if !d.literal(",") {
					break
				}
			}
			if !d.literal("]") {
				return d.fail("want , or ]")
			}
			return nil
		}, nil
	case reflect.Struct:
		return compileStruct(t, path, open)
	}
	return nil, fmt.Errorf("%s: %s has no payload decoding", path, t.Kind())
}

// numberDecoder reads a JSON number and hands its bytes to parse, which
// stores the number in v at the field's bit size or reports why it does
// not fit; the conversion of the bytes for strconv stays on the stack.
func numberDecoder(parse func(b []byte, v reflect.Value) error) decoder {
	return func(d *decodeState, v reflect.Value) error {
		b, err := d.number()
		if err != nil {
			return err
		}
		if err := parse(b, v); err != nil {
			return fmt.Errorf("offset %d: %w", d.pos-len(b), err)
		}
		return nil
	}
}

// memberDecoder is one struct field's place in its object.
type memberDecoder struct {
	index int
	// key is the member's name as json.Marshal writes it after a
	// previous member: a comma, the quoted name and a colon.
	key      string
	optional bool
	decode   decoder
}

// compileStruct returns the decoder of struct type t: its members in
// declaration order, each present or, when optional, absent.
func compileStruct(t reflect.Type, path string, open map[reflect.Type]bool) (decoder, error) {
	if open[t] {
		return nil, fmt.Errorf("%s: recursive type %s", path, t)
	}
	open[t] = true
	defer delete(open, t)
	var members []memberDecoder
	names := map[string]bool{}
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		tag := sf.Tag.Get("json")
		switch {
		case tag == "-":
			continue
		case sf.Anonymous:
			return nil, fmt.Errorf("%s.%s: embedded field", path, sf.Name)
		case !sf.IsExported():
			continue
		}
		name, opts, _ := strings.Cut(tag, ",")
		if !validTagName(name) {
			name = sf.Name
		}
		if names[name] {
			return nil, fmt.Errorf("%s.%s: second member named %q", path, sf.Name, name)
		}
		names[name] = true
		m := memberDecoder{index: i}
		for _, opt := range strings.Split(opts, ",") {
			switch opt {
			case "omitempty", "omitzero":
				m.optional = true
			case "string":
				return nil, fmt.Errorf("%s.%s: the ,string option", path, sf.Name)
			}
		}
		key, err := json.Marshal(name)
		if err != nil {
			return nil, err
		}
		m.key = "," + string(key) + ":"
		if m.decode, err = compileDecoder(sf.Type, path+"."+sf.Name, open); err != nil {
			return nil, err
		}
		members = append(members, m)
	}
	return func(d *decodeState, v reflect.Value) error {
		if !d.literal("{") {
			return d.fail("want an object")
		}
		first := true
		for _, m := range members {
			key := m.key
			if first {
				key = key[1:]
			}
			if !d.literal(key) {
				if m.optional {
					continue
				}
				return d.fail("want member " + key)
			}
			if err := m.decode(d, v.Field(m.index)); err != nil {
				return err
			}
			first = false
		}
		if !d.literal("}") {
			return d.fail("want }")
		}
		return nil
	}, nil
}

// validTagName reports whether encoding/json takes name from a field's
// tag as the member name; otherwise it uses the field's name.
func validTagName(name string) bool {
	if name == "" {
		return false
	}
	for _, c := range name {
		if !strings.ContainsRune("!#$%&()*+-./:;<=>?@[]^_{|}~ ", c) && !unicode.IsLetter(c) && !unicode.IsDigit(c) {
			return false
		}
	}
	return true
}

// literal consumes lit if the input continues with it.
func (d *decodeState) literal(lit string) bool {
	if len(d.data)-d.pos < len(lit) || string(d.data[d.pos:d.pos+len(lit)]) != lit {
		return false
	}
	d.pos += len(lit)
	return true
}

// number consumes a JSON number — -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
// — and returns its bytes.
func (d *decodeState) number() ([]byte, error) {
	data, i := d.data, d.pos
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && '1' <= data[i] && data[i] <= '9':
		i = digits(data, i+1)
	default:
		return nil, d.fail("want a number")
	}
	if i < len(data) && data[i] == '.' {
		if j := digits(data, i+1); j > i+1 {
			i = j
		} else {
			return nil, d.fail("want a digit after the decimal point")
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if j := digits(data, i); j > i {
			i = j
		} else {
			return nil, d.fail("want a digit in the exponent")
		}
	}
	b := data[d.pos:i]
	d.pos = i
	return b, nil
}

// digits returns the offset of the first non-digit at or after i.
func digits(data []byte, i int) int {
	for i < len(data) && '0' <= data[i] && data[i] <= '9' {
		i++
	}
	return i
}

// str consumes a string literal and returns its value. A literal
// without escapes is its bytes; one with escapes is unescaped as
// json.Unmarshal does, a lone surrogate becoming U+FFFD. Raw invalid
// UTF-8, which json.Marshal never writes, is an error.
func (d *decodeState) str() (string, error) {
	if !d.literal(`"`) {
		return "", d.fail("want a string")
	}
	data, start := d.data, d.pos
	escaped, ascii := false, true
	i := start
	for ; i < len(data) && data[i] != '"'; i++ {
		switch c := data[i]; {
		case c < 0x20:
			d.pos = i
			return "", d.fail("control character in a string")
		case c == '\\':
			escaped = true
			i++ // the escaped byte never ends the string
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	if i >= len(data) {
		d.pos = len(data)
		return "", d.fail("unterminated string")
	}
	raw := data[start:i]
	if !ascii && !utf8.Valid(raw) {
		return "", d.fail("invalid UTF-8 in a string")
	}
	d.pos = i + 1
	if !escaped {
		return string(raw), nil
	}
	s, err := unescape(raw)
	if err != nil {
		d.pos = start
		return "", d.fail(err.Error())
	}
	return s, nil
}

// unescape decodes the escapes of a string literal's body.
func unescape(raw []byte) (string, error) {
	b := make([]byte, 0, len(raw))
	for i := 0; i < len(raw); {
		if raw[i] != '\\' {
			b = append(b, raw[i])
			i++
			continue
		}
		if i+1 == len(raw) {
			return "", errors.New("escape at the end of a string")
		}
		switch c := raw[i+1]; c {
		case '"', '\\', '/':
			b = append(b, c)
		case 'b':
			b = append(b, '\b')
		case 'f':
			b = append(b, '\f')
		case 'n':
			b = append(b, '\n')
		case 'r':
			b = append(b, '\r')
		case 't':
			b = append(b, '\t')
		case 'u':
			r := hex4(raw[i:])
			if r < 0 {
				return "", errors.New(`malformed \u escape`)
			}
			if utf16.IsSurrogate(r) {
				if pair := utf16.DecodeRune(r, hex4(raw[i+6:])); pair != unicode.ReplacementChar {
					r = pair
					i += 6
				} else {
					r = unicode.ReplacementChar
				}
			}
			b = utf8.AppendRune(b, r)
			i += 6
			continue
		default:
			return "", fmt.Errorf("unknown escape \\%c", c)
		}
		i += 2
	}
	return string(b), nil
}

// hex4 reads the rune of a \uXXXX escape at the start of s, or returns
// -1 if s does not start with one.
func hex4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

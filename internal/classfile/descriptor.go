package classfile

import (
	"errors"
	"fmt"
	"strings"
)

// Descriptor is a parsed method descriptor. The syntax follows the JVM
// specification — "(" parameter types ")" return type — with every value
// occupying one 64-bit word in the simulator (long and double included, so
// there are no two-word slots to manage). Raw and Return are substrings of
// the parsed descriptor, so parsing allocates nothing.
type Descriptor struct {
	Raw          string
	ParamWords   int
	Return       string // "V" for void
	ReturnsValue bool
}

// ErrBadDescriptor reports a malformed method descriptor.
var ErrBadDescriptor = errors.New("classfile: malformed descriptor")

// ParseDescriptor parses a JVM-style method descriptor such as "(II)I",
// "([BI)V" or "(Ljava/lang/String;)J".
func ParseDescriptor(desc string) (Descriptor, error) {
	if len(desc) < 3 || desc[0] != '(' {
		return Descriptor{}, fmt.Errorf("%w: %q", ErrBadDescriptor, desc)
	}
	close := strings.IndexByte(desc, ')')
	if close < 0 {
		return Descriptor{}, fmt.Errorf("%w: %q missing ')'", ErrBadDescriptor, desc)
	}
	params, err := countTypes(desc[1:close])
	if err != nil {
		return Descriptor{}, fmt.Errorf("%w: %q: %v", ErrBadDescriptor, desc, err)
	}
	ret := desc[close+1:]
	if err := checkType(ret, true); err != nil {
		return Descriptor{}, fmt.Errorf("%w: %q: bad return type: %v", ErrBadDescriptor, desc, err)
	}
	return Descriptor{
		Raw:          desc,
		ParamWords:   params,
		Return:       ret,
		ReturnsValue: ret != "V",
	}, nil
}

// nextType returns the length of the field type that opens s.
func nextType(s string) (int, error) {
	i := 0
	// Array dimensions.
	for i < len(s) && s[i] == '[' {
		i++
	}
	if i >= len(s) {
		return 0, errors.New("trailing '['")
	}
	switch s[i] {
	case 'B', 'C', 'D', 'F', 'I', 'J', 'S', 'Z':
		return i + 1, nil
	case 'L':
		semi := strings.IndexByte(s[i:], ';')
		if semi < 0 {
			return 0, errors.New("unterminated class type")
		}
		return i + semi + 1, nil
	default:
		return 0, fmt.Errorf("unknown type char %q", s[i])
	}
}

// countTypes validates a concatenation of field types and counts them.
func countTypes(s string) (int, error) {
	n := 0
	for len(s) > 0 {
		k, err := nextType(s)
		if err != nil {
			return 0, err
		}
		s = s[k:]
		n++
	}
	return n, nil
}

func checkType(t string, allowVoid bool) error {
	if t == "" {
		return errors.New("empty type")
	}
	if t == "V" {
		if allowVoid {
			return nil
		}
		return errors.New("void not allowed here")
	}
	n, err := countTypes(t)
	if err != nil {
		return err
	}
	if n != 1 {
		return fmt.Errorf("expected a single type, got %d", n)
	}
	return nil
}

// BuildDescriptor assembles a descriptor from parameter type strings and a
// return type. It is the inverse of ParseDescriptor and is used by workload
// generators when synthesizing classes.
func BuildDescriptor(params []string, ret string) string {
	var b strings.Builder
	b.WriteByte('(')
	for _, p := range params {
		b.WriteString(p)
	}
	b.WriteByte(')')
	b.WriteString(ret)
	return b.String()
}

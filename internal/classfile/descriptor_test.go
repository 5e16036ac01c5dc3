package classfile

import (
	"strings"
	"testing"
	"testing/quick"
)

// ParamTypes splits d's parameter list into one type string per
// parameter, e.g. "I", "[I", "Ljava/lang/String;".
func (d Descriptor) ParamTypes() []string {
	s := d.Raw[1:strings.IndexByte(d.Raw, ')')]
	var out []string
	for len(s) > 0 {
		k, err := nextType(s)
		if err != nil {
			panic(err)
		}
		out = append(out, s[:k])
		s = s[k:]
	}
	return out
}

func TestParseDescriptorSimple(t *testing.T) {
	d, err := ParseDescriptor("(II)I")
	if err != nil {
		t.Fatal(err)
	}
	if d.ParamWords != 2 || !d.ReturnsValue || d.Return != "I" {
		t.Fatalf("got %+v", d)
	}
	if p := d.ParamTypes(); p[0] != "I" || p[1] != "I" {
		t.Fatalf("params = %v", p)
	}
}

func TestParseDescriptorVoid(t *testing.T) {
	d, err := ParseDescriptor("()V")
	if err != nil {
		t.Fatal(err)
	}
	if d.ParamWords != 0 || d.ReturnsValue {
		t.Fatalf("got %+v", d)
	}
}

func TestParseDescriptorArrays(t *testing.T) {
	d, err := ParseDescriptor("([BI[[J)[I")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"[B", "I", "[[J"}
	got := d.ParamTypes()
	if len(got) != len(want) {
		t.Fatalf("params = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("param %d = %q, want %q", i, got[i], want[i])
		}
	}
	if d.Return != "[I" {
		t.Fatalf("return = %q, want [I", d.Return)
	}
}

func TestParseDescriptorClassTypes(t *testing.T) {
	d, err := ParseDescriptor("(Ljava/lang/String;J)Ljava/lang/Object;")
	if err != nil {
		t.Fatal(err)
	}
	if p := d.ParamTypes(); p[0] != "Ljava/lang/String;" || p[1] != "J" {
		t.Fatalf("params = %v", p)
	}
	if d.Return != "Ljava/lang/Object;" {
		t.Fatalf("return = %q", d.Return)
	}
}

func TestParseDescriptorMalformed(t *testing.T) {
	bad := []string{
		"",
		"()",
		"II)I",
		"(II",
		"(Q)V",
		"(I)Q",
		"(L)V",
		"(Ljava/lang/String)V", // missing semicolon
		"([)V",
		"(I)",
		"(I)II", // two return types
		"(I)VV",
	}
	for _, s := range bad {
		if _, err := ParseDescriptor(s); err == nil {
			t.Errorf("ParseDescriptor(%q) succeeded, want error", s)
		}
	}
}

func TestParseDescriptorAllocatesNothing(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ParseDescriptor("(IJ[BLjava/lang/String;[[D)Ljava/lang/Object;"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ParseDescriptor allocated %v times per call", allocs)
	}
}

func TestParseDescriptorVoidParamRejected(t *testing.T) {
	if _, err := ParseDescriptor("(V)V"); err == nil {
		t.Fatal("void parameter should be rejected")
	}
}

func TestBuildDescriptorRoundTrip(t *testing.T) {
	cases := [][]string{
		nil,
		{"I"},
		{"I", "J", "[B"},
		{"Ljava/lang/String;", "[[I"},
	}
	for _, params := range cases {
		for _, ret := range []string{"V", "I", "[J", "Ljava/lang/Object;"} {
			raw := BuildDescriptor(params, ret)
			d, err := ParseDescriptor(raw)
			if err != nil {
				t.Fatalf("round trip %q: %v", raw, err)
			}
			if d.Return != ret {
				t.Fatalf("%q: return = %q, want %q", raw, d.Return, ret)
			}
			got := d.ParamTypes()
			if len(got) != len(params) {
				t.Fatalf("%q: params = %v, want %v", raw, got, params)
			}
			for i := range params {
				if got[i] != params[i] {
					t.Fatalf("%q: param %d = %q, want %q", raw, i, got[i], params[i])
				}
			}
		}
	}
}

// Property: building a descriptor from generated primitive params always
// parses back with the same word count.
func TestDescriptorWordsProperty(t *testing.T) {
	prims := []string{"B", "C", "D", "F", "I", "J", "S", "Z"}
	f := func(picks []uint8) bool {
		if len(picks) > 64 {
			picks = picks[:64]
		}
		params := make([]string, len(picks))
		for i, p := range picks {
			params[i] = prims[int(p)%len(prims)]
		}
		raw := BuildDescriptor(params, "V")
		d, err := ParseDescriptor(raw)
		if err != nil {
			return false
		}
		return d.ParamWords == len(params)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseDescriptorDeepArrayNesting(t *testing.T) {
	deep := strings.Repeat("[", 64) + "I"
	d, err := ParseDescriptor("(" + deep + ")V")
	if err != nil {
		t.Fatal(err)
	}
	if d.ParamTypes()[0] != deep {
		t.Fatalf("param = %q", d.ParamTypes()[0])
	}
}

package checkpoint

import (
	"bytes"
	"encoding/json"
	"fmt"
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

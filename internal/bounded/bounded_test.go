package bounded

import (
	"fmt"
	"testing"
)

// TestMapBound stores more keys than the bound: the map never holds
// more, a new key into a full map clears it first, and storing a key
// that is present never clears it.
func TestMapBound(t *testing.T) {
	const max = 4
	m := New[int](max)
	for i := 0; i < 3*max; i++ {
		m.Put([]byte(fmt.Sprint(i)), i)
		if n := m.Len(); n > max || n != i%max+1 {
			t.Fatalf("after %d puts the map holds %d values, want %d", i+1, n, i%max+1)
		}
		if v, ok := m.Get([]byte(fmt.Sprint(i))); !ok || v != i {
			t.Fatalf("put %d: got %d, %v", i, v, ok)
		}
	}
	m.Put([]byte(fmt.Sprint(3*max-1)), -1) // present: replaced, nothing cleared
	if n := m.Len(); n != max {
		t.Fatalf("replacing a present key left %d values, want %d", n, max)
	}
	seen := 0
	m.Range(func(string, int) { seen++ })
	m.Clear()
	if seen != max || m.Len() != 0 {
		t.Fatalf("Range saw %d values, Clear left %d", seen, m.Len())
	}
}

// TestMapGetAllocatesNothing: a lookup by a byte-slice key allocates
// nothing, hit or miss.
func TestMapGetAllocatesNothing(t *testing.T) {
	m := New[string](2)
	m.Put([]byte("key"), "v")
	hit, miss := []byte("key"), []byte("nokey")
	if allocs := testing.AllocsPerRun(100, func() {
		m.Get(hit)
		m.Get(miss)
	}); allocs != 0 {
		t.Fatalf("lookups allocated %v times", allocs)
	}
}

package cycles

import (
	"testing"
	"testing/quick"
)

func TestCounterAdvanceRead(t *testing.T) {
	var c Counter
	if c.Read() != 0 {
		t.Fatalf("fresh counter = %d, want 0", c.Read())
	}
	c.Advance(5)
	c.Advance(7)
	if c.Read() != 12 {
		t.Fatalf("counter = %d, want 12", c.Read())
	}
}

func TestRegistryRegisterTimestamp(t *testing.T) {
	r := NewRegistry()
	c := r.Register(1)
	c.Advance(100)
	if ts := r.Timestamp(1); ts != 100 {
		t.Fatalf("Timestamp = %d, want 100", ts)
	}
}

func TestRegistryUnknownThreadReadsZero(t *testing.T) {
	r := NewRegistry()
	if ts := r.Timestamp(42); ts != 0 {
		t.Fatalf("Timestamp(unknown) = %d, want 0", ts)
	}
}

func TestRegistryDoubleRegisterPanics(t *testing.T) {
	r := NewRegistry()
	r.Register(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double registration")
		}
	}()
	r.Register(1)
}

func TestRegistryUnregister(t *testing.T) {
	r := NewRegistry()
	c := r.Register(1)
	c.Advance(9)
	r.Unregister(1)
	if r.Counter(1) != nil {
		t.Fatal("Counter after Unregister should be nil")
	}
	if r.Timestamp(1) != 0 {
		t.Fatal("Timestamp after Unregister should be 0")
	}
	// The caller-held pointer stays valid.
	if c.Read() != 9 {
		t.Fatalf("held counter = %d, want 9", c.Read())
	}
}

func TestRegistryLive(t *testing.T) {
	r := NewRegistry()
	if r.Live() != 0 {
		t.Fatal("fresh registry not empty")
	}
	r.Register(1)
	r.Register(2)
	if r.Live() != 2 {
		t.Fatalf("Live = %d, want 2", r.Live())
	}
	r.Unregister(1)
	if r.Live() != 1 {
		t.Fatalf("Live = %d, want 1", r.Live())
	}
}

// TestFixedCompensator: a compensator subtracts exactly its fixed cost,
// and the zero value (IPA without Compensate) subtracts nothing.
func TestFixedCompensator(t *testing.T) {
	if got := NewFixedCompensator(7).Compensate(100); got != 93 {
		t.Fatalf("Compensate(100) = %d, want 93", got)
	}
	var zero Compensator
	if got := zero.Compensate(100); got != 100 {
		t.Fatalf("zero Compensate(100) = %d, want 100", got)
	}
}

func TestCompensateSaturates(t *testing.T) {
	k := NewFixedCompensator(10)
	if got := k.Compensate(25); got != 15 {
		t.Fatalf("Compensate(25) = %d, want 15", got)
	}
	if got := k.Compensate(10); got != 0 {
		t.Fatalf("Compensate(10) = %d, want 0", got)
	}
	if got := k.Compensate(3); got != 0 {
		t.Fatalf("Compensate(3) = %d, want 0", got)
	}
}

// Property: a counter is exactly the sum of its advances.
func TestCounterSumProperty(t *testing.T) {
	f := func(steps []uint16) bool {
		var c Counter
		var want uint64
		for _, s := range steps {
			c.Advance(uint64(s))
			want += uint64(s)
		}
		return c.Read() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: compensation never increases a delta and never goes negative.
func TestCompensateBoundsProperty(t *testing.T) {
	f := func(avg uint16, delta uint32) bool {
		k := NewFixedCompensator(uint64(avg))
		got := k.Compensate(uint64(delta))
		return got <= uint64(delta)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryManyThreadsIndependent(t *testing.T) {
	r := NewRegistry()
	const n = 64
	for i := ThreadID(0); i < n; i++ {
		r.Register(i).Advance(uint64(i) * 10)
	}
	for i := ThreadID(0); i < n; i++ {
		if got := r.Timestamp(i); got != uint64(i)*10 {
			t.Fatalf("thread %d timestamp = %d, want %d", i, got, uint64(i)*10)
		}
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	// Registration, reads and unregistration from concurrent goroutines
	// must be race-free (run under -race in CI).
	r := NewRegistry()
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			base := ThreadID(g * 1000)
			for i := ThreadID(0); i < 50; i++ {
				c := r.Register(base + i)
				c.Advance(uint64(i))
				_ = r.Timestamp(base + i)
				_ = r.Counter(base + i)
				r.Unregister(base + i)
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if r.Live() != 0 {
		t.Fatalf("Live = %d after teardown", r.Live())
	}
}

// Package cycles is the reproduction's stand-in for the Performance Counter
// Library (PCL) used by the paper: per-thread processor cycle counters with
// a timestamp-read API.
//
// The paper reads the hardware timestamp counter of a Pentium 4 through PCL,
// virtualized per thread by the operating system. This substrate instead
// maintains a deterministic virtual cycle clock per simulated thread: the
// execution engine (interpreter, JIT-compiled code model, and native code
// model) advances the owning thread's counter as it runs. Agents read the
// counter through Timestamp, exactly where the paper's pseudo-code calls
// PCL.getTimestamp(Thread).
//
// Because the clock is virtual and deterministic, agent accuracy can be
// validated against exact ground truth — something the original evaluation
// could not do on real hardware.
package cycles

import (
	"fmt"
	"sync"
)

// ThreadID identifies a simulated thread. IDs are assigned by the VM and are
// never reused within a VM instance.
type ThreadID int32

// Counter is a single thread's virtual cycle counter. It is owned by exactly
// one simulated thread; the VM scheduler guarantees that Advance is never
// called concurrently for the same counter, so no locking is needed on the
// hot path. Reads from other threads (e.g. the harness after termination)
// happen only after the owning thread has stopped.
type Counter struct {
	cycles uint64
}

// Advance adds n cycles to the counter.
func (c *Counter) Advance(n uint64) {
	c.cycles += n
}

// Read returns the current cycle count.
func (c *Counter) Read() uint64 {
	return c.cycles
}

// Registry tracks the cycle counter of every live thread in a VM, mirroring
// PCL's per-thread counter virtualization. The registry itself is
// synchronized because threads are registered and unregistered from the
// scheduler while agents may concurrently resolve counters.
type Registry struct {
	mu       sync.Mutex
	counters map[ThreadID]*Counter
}

// NewRegistry returns an empty counter registry.
func NewRegistry() *Registry {
	return &Registry{counters: make(map[ThreadID]*Counter)}
}

// Register creates and returns the counter for thread id. Registering the
// same id twice is a programming error in the VM and panics.
func (r *Registry) Register(id ThreadID) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.counters[id]; ok {
		panic(fmt.Sprintf("cycles: thread %d registered twice", id))
	}
	c := &Counter{}
	r.counters[id] = c
	return c
}

// Unregister removes the counter for thread id. The counter remains valid
// for callers that still hold a pointer to it.
func (r *Registry) Unregister(id ThreadID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.counters, id)
}

// Counter returns the counter for thread id, or nil if the thread is not
// registered.
func (r *Registry) Counter(id ThreadID) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[id]
}

// Timestamp reads the cycle counter of thread id. It is the analogue of the
// paper's PCL.getTimestamp(Thread). Reading an unregistered thread returns
// zero, mirroring PCL's behaviour of returning an unstarted counter.
func (r *Registry) Timestamp(id ThreadID) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[id]; ok {
		return c.cycles
	}
	return 0
}

// Live returns the number of registered counters.
func (r *Registry) Live() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.counters)
}

// Compensator is the average cost of a profiling wrapper, which the
// improved agent subtracts from each measured interval to exclude wrapper
// execution time from the reported statistics (Section IV, last
// paragraph: "we adjust the timestamp obtained from PCL in order to
// compensate for the average execution time of the corresponding
// wrapper"). The agent calibrates it once, from the cost model, before
// the first transition; it is an immutable value, so reading it on a
// transition takes no lock.
type Compensator struct {
	avg uint64
}

// NewFixedCompensator returns a compensator that always subtracts cost.
func NewFixedCompensator(cost uint64) Compensator {
	return Compensator{avg: cost}
}

// Compensate subtracts the average wrapper cost from delta, saturating at
// zero so perturbation correction can never produce negative intervals.
func (k Compensator) Compensate(delta uint64) uint64 {
	if delta <= k.avg {
		return 0
	}
	return delta - k.avg
}

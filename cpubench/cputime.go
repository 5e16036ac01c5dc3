package main

import (
	"runtime/metrics"
	"syscall"
	"time"
	"unsafe"
)

// Linux clock ids for clock_gettime(2).
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID, for the tests
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		// Both clocks exist on every Linux kernel Go supports; a failure
		// here would make every timing meaningless.
		panic("cpubench: clock_gettime: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// processCPU is the user+sys CPU time consumed so far by every thread of
// the process. Go's GC workers and the scavenger are threads of the
// process, so their time is included; time the hypervisor steals from
// the guest is not.
func processCPU() time.Duration { return cpuClock(clockProcessCPU) }

// goStats is one reading of the Go runtime counters the benchmark uses.
type goStats struct {
	allocBytes  uint64  // cumulative bytes allocated on the Go heap
	gcCPU       float64 // runtime estimate of GC CPU seconds
	totalCPU    float64 // runtime estimate of all CPU seconds available
	heapObjects uint64  // bytes in heap objects right now
}

var goStatNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/memory/classes/heap/objects:bytes",
}

func readGoStats() goStats {
	s := make([]metrics.Sample, len(goStatNames))
	for i, n := range goStatNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return goStats{
		allocBytes:  s[0].Value.Uint64(),
		gcCPU:       s[1].Value.Float64(),
		totalCPU:    s[2].Value.Float64(),
		heapObjects: s[3].Value.Uint64(),
	}
}

// allocBytes reads only the cumulative Go-heap allocation counter; it is
// cheap enough to take around every harness call.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: goStatNames[0]}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

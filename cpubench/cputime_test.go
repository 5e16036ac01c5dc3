package main

import (
	"runtime"
	"testing"
	"time"
)

// threadCPU is the CPU time of the calling OS thread only.
func threadCPU() time.Duration { return cpuClock(clockThreadCPU) }

// burn spins until the process has used d more CPU time.
func burn(d time.Duration) {
	end := processCPU() + d
	for processCPU() < end {
	}
}

// TestProcessCPUCountsGCWorkers checks that the op timer charges the Go
// GC's background mark workers. The calling goroutine is locked to its
// thread and forces collections of a large pointer heap; runtime.GC
// parks it while the mark workers run on other threads, so most of the
// process CPU of the collections lies outside the calling thread.
func TestProcessCPUCountsGCWorkers(t *testing.T) {
	type node struct {
		next *node
		pad  [6]*int
	}
	var head *node
	for i := 0; i < 400_000; i++ {
		head = &node{next: head}
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	g0 := readGoStats()
	p0, t0 := processCPU(), threadCPU()
	for i := 0; i < 20; i++ {
		runtime.GC()
	}
	p1, t1 := processCPU(), threadCPU()
	g1 := readGoStats()
	runtime.KeepAlive(head)

	proc, self := p1-p0, t1-t0
	if g1.gcCPU <= g0.gcCPU {
		t.Fatalf("the runtime reports no GC CPU over 20 collections")
	}
	if proc-self < proc/4 {
		t.Errorf("process CPU %v, calling thread %v: GC work on other threads is not counted", proc, self)
	}
}

// TestProcessCPUCountsOtherThreads checks the same for any thread: CPU
// burnt by another goroutine while this one waits is charged.
func TestProcessCPUCountsOtherThreads(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	done := make(chan time.Duration)
	p0 := processCPU()
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		t0 := threadCPU()
		end := t0 + 30*time.Millisecond
		for threadCPU() < end {
		}
		done <- threadCPU() - t0
	}()
	worker := <-done
	if proc := processCPU() - p0; proc < worker {
		t.Errorf("process CPU %v is less than the other thread's %v", proc, worker)
	}
}

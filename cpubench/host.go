package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostContext is recorded with every run, so a reader can tell when the
// wall clock was contaminated by a busy or oversubscribed host.
type hostContext struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpuModel"`
	GoVersion  string `json:"goVersion"`
	// CacheFS is the filesystem of the result-cache directory
	// (cache-rerun only).
	CacheFS string `json:"cacheFS,omitempty"`
	// WallPerCPU is wall time over process CPU time across the measured
	// passes: 1 on an idle host with one busy thread, above 1 when the
	// process waited (for I/O, or for a CPU the hypervisor gave away).
	WallPerCPU float64 `json:"wallPerCPU"`
	// StealFrac is the host-wide share of non-idle CPU ticks the
	// hypervisor stole during the measured passes (/proc/stat delta).
	StealFrac float64 `json:"stealFrac"`
}

func newHostContext() hostContext {
	return hostContext{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTicks is the aggregate "cpu" line of /proc/stat.
type cpuTicks struct{ busy, steal uint64 }

// readTicks returns zero ticks where /proc/stat is unreadable; the steal
// share then reads 0, which the host line shows beside wall_per_cpu.
func readTicks() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var v [8]uint64
	for i := range v {
		v[i], _ = strconv.ParseUint(f[i+1], 10, 64)
	}
	// user nice system idle iowait irq softirq steal
	return cpuTicks{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}
}

// stealFrac is the share of non-idle ticks between a and b that were
// stolen.
func stealFrac(a, b cpuTicks) float64 {
	busy, steal := b.busy-a.busy, b.steal-a.steal
	if busy+steal == 0 {
		return 0
	}
	return float64(steal) / float64(busy+steal)
}

// hostWindow measures wall time, process CPU and /proc/stat ticks over
// an interval.
type hostWindow struct {
	wall  time.Time
	cpu   time.Duration
	ticks cpuTicks
}

func openWindow() hostWindow {
	return hostWindow{wall: time.Now(), cpu: processCPU(), ticks: readTicks()}
}

// close returns wall÷CPU and the steal share since the window opened.
func (w hostWindow) close() (wallPerCPU, steal float64) {
	cpu := processCPU() - w.cpu
	if cpu > 0 {
		wallPerCPU = float64(time.Since(w.wall)) / float64(cpu)
	}
	return wallPerCPU, stealFrac(w.ticks, readTicks())
}

// fsName names the filesystem holding dir.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

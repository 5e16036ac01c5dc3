package main

import "time"

// calUnit is, by definition, the CPU time of the calibration kernel's
// median run on the reference host. The end-to-end CPU times are reported
// for that host: multiplied by calUnit over the kernel's median run here.
const calUnit = time.Millisecond

// calIters sizes one kernel run: on a 2-vCPU Intel Xeon VM its median run
// took 1.2 to 1.6 ms, so a reference millisecond is about 0.7 real ones
// there.
const calIters = 30

// calibrator times a fixed CPU kernel that belongs to the benchmark, not
// to the program: an interpreter-shaped dispatch loop over a fixed
// program, with loads from a 16 KiB table that stays in the core's first
// level cache. On a shared host the CPU time of an op moves by tens of
// percent with what the neighbours run on the same core, in phases from
// under a second to minutes. The benchmark runs the kernel in step with
// the ops, so it meets the same phases in the same shares, and reports
// the program's CPU time in units of the kernel's. A kernel reading a
// table of 8 MiB instead also felt contention in the shared cache, which
// some workloads do not, and added noise there.
type calibrator struct {
	table []uint32
	prog  []byte
	runs  []float64 // CPU time of every run, in nanoseconds
	sink  uint64
}

func newCalibrator() *calibrator {
	c := &calibrator{table: make([]uint32, 1<<12), prog: make([]byte, 4096)}
	x := uint32(2463534242)
	next := func() uint32 {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		return x
	}
	for i := range c.table {
		c.table[i] = next()
	}
	for i := range c.prog {
		c.prog[i] = byte(next() % 8)
	}
	return c
}

// run times one kernel run in process CPU time.
func (c *calibrator) run() {
	c0 := processCPU()
	c.kernel()
	c.runs = append(c.runs, float64(processCPU()-c0))
}

// scale turns CPU time measured here into reference CPU time.
func (c *calibrator) scale() float64 {
	return ratio(float64(calUnit), median(c.runs))
}

func (c *calibrator) kernel() {
	var stack [64]uint64
	sp := 8
	acc := uint64(1)
	idx := uint32(7)
	mask := uint32(len(c.table) - 1)
	for range calIters {
		for pc, op := range c.prog {
			switch op {
			case 0:
				stack[sp&63] = acc
				sp++
			case 1:
				sp--
				acc += stack[sp&63]
			case 2:
				acc = acc*6364136223846793005 + 1442695040888963407
			case 3:
				idx = c.table[(idx^uint32(acc))&mask]
				acc ^= uint64(idx)
			case 4:
				if acc&1 == 0 {
					acc >>= 1
				} else {
					acc = acc*3 + 1
				}
			case 5:
				stack[(sp+pc)&63] ^= acc
			case 6:
				acc += uint64(c.table[(uint32(pc)*2654435761)&mask])
			default:
				acc = acc<<7 | acc>>57
			}
		}
	}
	c.sink += acc
}

package main

import "time"

// The host this benchmark runs on changes speed by tens of percent over
// minutes (other tenants share its cores and caches), which moves every
// timing of a run together. Before each repetition the parent times a
// fixed kernel that does what the simulator's hot paths do: dependent
// loads over a table larger than the caches, map lookups and integer
// arithmetic. Host-time metrics are reported scaled by refCalibS ÷ the
// run's median kernel time, that is, in seconds of the reference host.
// The kernel is the benchmark's own code, so a change to the simulator
// moves the raw timings and never the kernel.

// refCalibS is the kernel's median time on the reference host (Intel
// Xeon, 2 vCPUs, Go 1.24).
const refCalibS = 0.155

const (
	calibWords = 1 << 21 // 16 MiB of uint64
	calibKeys  = 1 << 16
	calibSteps = 800_000
)

type calibrator struct {
	table []uint64
	m     map[uint32]uint32
}

func newCalibrator() *calibrator {
	c := &calibrator{table: make([]uint64, calibWords), m: make(map[uint32]uint32, calibKeys)}
	for i := range c.table {
		c.table[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	for i := uint32(0); i < calibKeys; i++ {
		c.m[i*2654435761] = i
	}
	return c
}

var calibSink uint64

// run times one pass of the kernel; it allocates nothing.
func (c *calibrator) run() time.Duration {
	t0 := time.Now()
	x, s := uint64(88172645463325252), uint64(0)
	for i := 0; i < calibSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := (x ^ s) & (calibWords - 1)
		s += c.table[j]
		c.table[j] = s
		s += uint64(c.m[uint32(x&(calibKeys-1))*2654435761])
	}
	calibSink = s
	return time.Since(t0)
}

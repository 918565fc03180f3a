package main

import (
	"time"
)

// Speed calibration. The boxes this benchmark runs on are small shared
// VMs whose speed drifts in phases lasting seconds to minutes: the
// same scan_local round, replayed in one process, had raw p50s from
// 5.3 to 9.4 ms, and ten-second medians inherit that. Most of the
// drift is plain core speed — a pure integer loop slows and quickens
// in step (slice 177 us / query 5.3 ms, 220 / 6.5, 270 / 8.7). So the
// harness interleaves a fixed, engine-independent kernel with the work
// it times, one slice of about 0.2 ms every few milliseconds, and
// divides each round's times by the round's speed index: the median
// slice time over nominalSliceNs. What is reported is the time the
// work would have taken with the machine at its nominal speed; in a
// noisy phase that cut the spread of scan_sharded's p50 over ten runs
// from 19 % to 4 %, in a calm one it changes little. What the kernel
// cannot see (a neighbour thrashing the shared cache, the second vCPU
// stolen from the collector, slow wake-ups across loopback) stays in
// the numbers as noise. The kernel lives here, allocates nothing and
// never touches the engine, so a change to the engine cannot move it;
// on another machine the index settles at another constant and parent
// and change are scaled alike.

const (
	// calibWords sizes the kernel's buffer at 16 KiB and calibPasses
	// walks it 64 times a slice: it stays in L1, so the slice times
	// the core and not whatever the workload left in the caches (a
	// 1 MiB buffer made the index swing by 10 % on scan_wire alone).
	calibWords  = 1 << 11
	calibPasses = 64
	// nominalSliceNs is one slice on the reference box (2 vCPU Xeon
	// 2.1 GHz) in its usual phase; the speed index is 1 there.
	nominalSliceNs = 200_000
	// calibEvery is how much timed work separates two slices: slices
	// take about 4 % of a round.
	calibEvery = 5 * time.Millisecond
)

// calibrator runs calibration slices and keeps their durations.
type calibrator struct {
	buf     []uint64
	h       uint64
	samples []float64     // slice durations in ns since the last reset
	spent   time.Duration // total time in slices since the last reset
	last    time.Time     // end of the latest slice
}

func newCalibrator() *calibrator { return &calibrator{buf: make([]uint64, calibWords)} }

// slice runs the kernel once: a dependent multiply-add chain over the
// buffer, so its time tracks core speed and nothing else.
func (c *calibrator) slice() {
	t0 := time.Now()
	h := c.h
	for p := 0; p < calibPasses; p++ {
		for i := range c.buf {
			h = h*0x9e3779b97f4a7c15 + c.buf[i] + uint64(i)
			c.buf[i] = h
		}
	}
	c.h = h
	c.last = time.Now()
	d := c.last.Sub(t0)
	c.samples = append(c.samples, float64(d.Nanoseconds()))
	c.spent += d
}

// reset starts a new measurement window at now.
func (c *calibrator) reset(now time.Time) {
	c.samples = c.samples[:0]
	c.spent = 0
	c.last = now
}

// tick runs a slice when calibEvery of work has passed since the last
// one; now is a timestamp the caller already took.
func (c *calibrator) tick(now time.Time) {
	if now.Sub(c.last) >= calibEvery {
		c.slice()
	}
}

// burst runs n slices back to back, for bracketing work too short or
// too opaque to interleave with.
func (c *calibrator) burst(n int) {
	for i := 0; i < n; i++ {
		c.slice()
	}
}

// probe opens a fresh window, runs n slices and returns their speed
// index.
func (c *calibrator) probe(n int) float64 {
	c.reset(time.Now())
	c.burst(n)
	return c.index()
}

// index is the window's speed index: above 1 the machine ran slower
// than nominal. A window without slices has index 1.
func (c *calibrator) index() float64 {
	if len(c.samples) == 0 {
		return 1
	}
	return median(c.samples) / nominalSliceNs
}

package main

import (
	"sort"
	"time"
)

// The host this benchmark runs on is shared, and its speed changes by up
// to half in stretches from seconds to hours: a job that takes 100 ms in
// one stretch takes 150 ms in the next, with no CPU steal and no other
// change. A run's raw latencies land wherever the host happened to be,
// so the end-to-end times are reported at a fixed reference speed
// instead. Just before every set-up and every operation (every cycle on
// serve), the benchmark times a fixed kernel of its own, and each time
// it measures is scaled by calRefMs over that kernel's time. The kernel
// is a sort and a grouping into a map of slices, a branchy, allocating
// mix that slows with the host the way all four workloads do (a
// random-access memory loop did not). A change to the program leaves the
// kernel as it is, so the scaled times move with the program exactly as
// the raw ones do. The traced run reports the raw latency
// (wall.p50_ms) and the kernel's time (host.cal_ms) beside the layers.

// calRefMs is the kernel's time on the reference host, in ms: scaled
// times are what the operations would take on a host where one pass of
// the kernel takes this long.
const calRefMs = 8.0

// calKeys is the number of keys the kernel sorts and groups.
const calKeys = 1 << 15

// calibrator owns the kernel's input and buffers, so a pass allocates
// only the map it builds.
type calibrator struct {
	keys, buf []int32
	sink      int
}

// hostCal is the process's calibrator; its buffers are filled, and the
// kernel warmed up, once.
var hostCal = newCalibrator()

func newCalibrator() *calibrator {
	c := &calibrator{keys: make([]int32, calKeys), buf: make([]int32, calKeys)}
	x := uint64(88172645463325252) // xorshift64, fixed: every run sorts the same keys
	for i := range c.keys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.keys[i] = int32(x >> 40)
	}
	for i := 0; i < 3; i++ {
		c.run()
	}
	return c
}

// run times one pass of the kernel.
func (c *calibrator) run() time.Duration {
	start := time.Now()
	copy(c.buf, c.keys)
	sort.Slice(c.buf, func(i, j int) bool { return c.buf[i] < c.buf[j] })
	groups := map[int32][]int32{}
	for i, k := range c.keys {
		groups[k&4095] = append(groups[k&4095], int32(i))
	}
	c.sink += len(groups) + int(c.buf[calKeys/2])
	return time.Since(start)
}

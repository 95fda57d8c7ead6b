package main

import (
	"math"
	"runtime"
	"syscall"
	"time"
)

// The host this benchmark runs on is shared: the same call can take up
// to 1.6 times longer at one time of day than at another, CPU time
// included. The calibration kernel below depends on nothing in the
// repository, so no change to the program can move it; timing it around
// each measured call gives the host's speed at that moment, and the
// end-to-end host timings are scaled to the reference host. The raw
// timings are printed beside the scaled ones.

// calibWallRef and calibCPURef fix the reference host: the kernel's
// wall and CPU times as measured on the 2-CPU virtual machine the bounds
// were set on. They only set the unit of the scaled figures; any fixed
// values would do.
const (
	calibWallRef = 12 * time.Millisecond
	calibCPURef  = 10500 * time.Microsecond
)

// calibBuf is what the kernel streams through: 4 MiB, larger than the
// per-core caches, like the frames, backgrounds and weights the cascade
// touches.
var calibBuf = func() []uint8 {
	b := make([]uint8, 4<<20)
	x := uint32(1)
	for i := range b {
		x = x*1664525 + 1013904223
		b[i] = uint8(x >> 24)
	}
	return b
}()

// calibSink keeps the kernel's result live.
var calibSink float32

// calibKernel box-sums the buffer in rows of 320 bytes, as SDD's resize
// does, and folds the sums through float multiply-adds, as the
// networks do.
func calibKernel() {
	var sums [80]uint32
	var f float32
	for pass := 0; pass < calibPasses; pass++ {
		calibPass(&sums, &f)
	}
	calibSink += f
}

// calibPasses makes one kernel run take about 12 ms on the reference
// host.
const calibPasses = 3

func calibPass(sums *[80]uint32, f *float32) {
	const w = 320
	for off := 0; off+4*w <= len(calibBuf); off += 4 * w {
		for r := 0; r < 4; r++ {
			row := calibBuf[off+r*w : off+(r+1)*w]
			for x, v := range row {
				sums[x/4] += uint32(v)
			}
		}
		for i, s := range sums {
			*f = *f*0.999 + float32(s)*float32(i&7)
			sums[i] = 0
		}
	}
}

// speed is the kernel's time at one moment: wall time, and the CPU
// time of the thread that ran it.
type speed struct{ wall, cpu time.Duration }

// calibrate times the kernel three times on one locked thread and keeps
// the fastest wall and CPU times: a pass the scheduler interrupted says
// nothing about the host's speed.
func calibrate() speed {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	best := speed{math.MaxInt64, math.MaxInt64}
	for i := 0; i < 3; i++ {
		t0, c0 := wallNow(), threadCPU()
		calibKernel()
		best.wall = min(best.wall, wallNow().Sub(t0))
		best.cpu = min(best.cpu, threadCPU()-c0)
	}
	return best
}

// calibrated runs fn between two calibrations and returns the mean of
// the two with fn's error.
func calibrated(fn func() error) (speed, error) {
	a := calibrate()
	err := fn()
	b := calibrate()
	return speed{(a.wall + b.wall) / 2, (a.cpu + b.cpu) / 2}, err
}

// wallScale converts a wall time measured at speed s to the reference
// host; cpuScale does the same for CPU time. They differ when the host
// shares the CPUs with other work: wall time then grows and CPU time
// does not.
func (s speed) wallScale() float64 { return float64(calibWallRef) / float64(s.wall) }
func (s speed) cpuScale() float64  { return float64(calibCPURef) / float64(s.cpu) }

// rusageThread is Linux's RUSAGE_THREAD.
const rusageThread = 1

// threadCPU is the calling thread's user plus system CPU time.
func threadCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		panic(err) // RUSAGE_THREAD with a valid buffer cannot fail on Linux
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// hostSample is what one timed call cost this process.
type hostSample struct {
	Wall time.Duration
	// CPU is user plus system time of the whole process (getrusage).
	CPU time.Duration
	// AllocBytes is the /gc/heap/allocs:bytes delta.
	AllocBytes uint64
	// PeakLive is the largest /gc/heap/live:bytes value and
	// PeakGoroutines the largest goroutine count seen by the sampler.
	PeakLive, PeakGoroutines uint64
	// GCCPU and TotalCPU are the runtime's estimates of GC CPU time
	// and all CPU time, in seconds.
	GCCPU, TotalCPU float64
}

// sampleEvery is the peak sampler's period: short next to any timed
// call, long enough that its own reads cost well under 0.1% of a CPU.
const sampleEvery = 5 * time.Millisecond

var counterNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

var gaugeNames = []string{
	"/gc/heap/live:bytes",
	"/sched/goroutines:goroutines",
}

// measure runs fn after a full GC and reports its host cost. A sampler
// goroutine tracks peak live heap and goroutines while fn runs; it
// exits before measure returns.
func measure(fn func() error) (hostSample, error) {
	runtime.GC()
	before := readSamples(counterNames)
	cpu0 := processCPU()

	var peakLive, peakG uint64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		gauges := make([]metrics.Sample, len(gaugeNames))
		for i, n := range gaugeNames {
			gauges[i].Name = n
		}
		//lint:allow detnow the peak sampler runs on host time by design
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		for {
			metrics.Read(gauges)
			peakLive = max(peakLive, gauges[0].Value.Uint64())
			peakG = max(peakG, gauges[1].Value.Uint64())
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()

	t0 := wallNow()
	err := fn()
	wall := wallNow().Sub(t0)
	close(stop)
	<-done

	after := readSamples(counterNames)
	return hostSample{
		Wall:           wall,
		CPU:            processCPU() - cpu0,
		AllocBytes:     after[0].Value.Uint64() - before[0].Value.Uint64(),
		PeakLive:       peakLive,
		PeakGoroutines: peakG,
		GCCPU:          after[1].Value.Float64() - before[1].Value.Float64(),
		TotalCPU:       after[2].Value.Float64() - before[2].Value.Float64(),
	}, err
}

func readSamples(names []string) []metrics.Sample {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// wallNow reads the wall clock: host time is what this benchmark
// measures, beside the virtual clock's modeled time.
func wallNow() time.Time {
	//lint:allow detnow host wall time is the measured quantity
	return time.Now()
}

// processCPU is the process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid buffer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

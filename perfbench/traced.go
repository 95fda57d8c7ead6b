package main

import (
	"runtime"
	"sync/atomic"
	"time"

	"ffsva"
	"ffsva/internal/cluster"
	"ffsva/internal/detect"
	"ffsva/internal/filters"
	"ffsva/internal/frame"
	"ffsva/internal/lab"
	"ffsva/internal/pipeline"
	"ffsva/internal/trace"
	"ffsva/internal/vclock"
)

// timer accumulates the wall time of calls into one layer. Under the
// virtual clock one process runs at a time, but the counters are atomic
// so the decorators stay correct on any clock.
type timer struct{ calls, ns atomic.Int64 }

func (t *timer) since(t0 time.Time) {
	t.calls.Add(1)
	t.ns.Add(int64(wallNow().Sub(t0)))
}

func (t *timer) total() time.Duration { return time.Duration(t.ns.Load()) }

// meanUS is the mean call time in microseconds, 0 without calls.
func (t *timer) meanUS() float64 {
	if n := t.calls.Load(); n > 0 {
		return float64(t.ns.Load()) / float64(n) / 1e3
	}
	return 0
}

// timedSource times FrameSource.Next (synthesis and decode).
type timedSource struct {
	pipeline.FrameSource
	t *timer
}

func (s timedSource) Next() *frame.Frame {
	t0 := wallNow()
	f := s.FrameSource.Next()
	s.t.since(t0)
	return f
}

// timedDetector times Detector.Detect. It forwards InputSize because
// TYolo.ProcessCands rescales candidate boxes through it; without the
// forward the traced run would compute different outputs.
type timedDetector struct {
	inner detect.Detector
	t     *timer
}

func (d timedDetector) Detect(f *frame.Frame) []detect.Detection {
	t0 := wallNow()
	dets := d.inner.Detect(f)
	d.t.since(t0)
	return dets
}

func (d timedDetector) InputSize() int {
	if s, ok := d.inner.(interface{ InputSize() int }); ok {
		return s.InputSize()
	}
	return 0
}

// layerTimers are the decorators' accumulators for one traced run.
type layerTimers struct{ next, tyolo, ref, mint timer }

// streamOptions mirrors the options the facade passes to
// lab.Camera.Stream for stream i.
func streamOptions(cfg ffsva.Config, i int) lab.StreamOptions {
	return lab.StreamOptions{
		Seed:            streamSeed(cfg.Seed, i),
		Frames:          cfg.FramesPerStream,
		FilterDegree:    cfg.FilterDegree,
		HasFilterDegree: true,
		NumberOfObjects: cfg.NumberOfObjects,
		Tolerance:       cfg.Tolerance,
	}
}

// streamSeed repeats the facade's per-stream seed derivation, which is
// not exported. If the two drift apart, the traced run's digest stops
// matching the untraced one and the run reports correct=false.
func streamSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	s := int64(z >> 1)
	if s == 0 {
		s = 1
	}
	return s
}

// mintStream times one lab.Camera.Stream call and decorates the spec's frame
// source and T-YOLO detector.
func (tm *layerTimers) mintStream(cam *lab.Camera, tg *detect.TinyGrid, cfg ffsva.Config, i int) pipeline.StreamSpec {
	t0 := wallNow()
	spec := cam.Stream(i, tg, streamOptions(cfg, i))
	tm.mint.since(t0)
	spec.Source = timedSource{spec.Source, &tm.next}
	spec.TYolo.Det = timedDetector{spec.TYolo.Det, &tm.tyolo}
	return spec
}

// traced is what the traced run of input 0 produced.
type traced struct {
	out    *outcome
	host   hostSample
	timers *layerTimers
	spans  []trace.StageStat
	snaps  []pipeline.Snapshot
	// poolGets and poolPuts are the frame-pool deltas over the run.
	poolGets, poolPuts int64
}

// tracedCall runs input k assembled from the pieces the facade uses
// (lab.Camera.Stream plus pipeline.New, or cluster.Arrival.Make plus
// cluster.New), with timing decorators on the layer seams and a
// tracer bound for the modeled stage decomposition.
func tracedCall(w workload, seed int64, k int) (*traced, error) {
	cam, err := w.camera()
	if err != nil {
		return nil, err
	}
	cfg := w.config(seed, k)
	tr := ffsva.NewTracer(ffsva.TraceOptions{})
	t := &traced{timers: &layerTimers{}}
	g0, p0 := frame.PoolStats()
	if w.Fleet {
		t.host, err = measure(func() error {
			rep := tracedCluster(w, seed, k, cam, tr, t)
			t.out = newOutcome(w, rep.Instances, rep)
			return nil
		})
	} else {
		t.host, err = measure(func() error {
			rep, sn := tracedPipeline(cfg, cam, tr, t.timers)
			t.snaps = []pipeline.Snapshot{sn}
			t.out = newOutcome(w, []*ffsva.Report{rep}, nil)
			return nil
		})
	}
	g1, p1 := frame.PoolStats()
	t.poolGets, t.poolPuts = g1-g0, p1-p0
	t.spans = tr.Decomposition(-1)
	return t, err
}

// tracedPipeline mirrors core.RunContext for the configurations the
// workloads use.
func tracedPipeline(cfg ffsva.Config, cam *lab.Camera, tr *trace.Tracer, tm *layerTimers) (*pipeline.Report, pipeline.Snapshot) {
	clk := vclock.NewVirtual()
	pcfg := pipeline.DefaultConfig(clk)
	pcfg.Mode = cfg.Mode
	pcfg.BatchPolicy = cfg.BatchPolicy
	if cfg.BatchSize > 0 {
		pcfg.BatchSize = cfg.BatchSize
	}
	pcfg.ChargeCosts = cfg.ChargeCosts
	pcfg.ShedAfter = cfg.ShedAfter
	pcfg.RefConf = cfg.RefConf
	pcfg.Consolidate = cfg.Consolidate
	pcfg.Tracer = tr
	pcfg.Ref = timedDetector{pcfg.Ref, &tm.ref}

	tg := detect.NewTinyGrid(detect.DefaultTinyGridConfig())
	specs := make([]pipeline.StreamSpec, cfg.Streams)
	for i := range specs {
		specs[i] = tm.mintStream(cam, tg, cfg, i)
	}
	sys := pipeline.New(pcfg, specs)
	rep := sys.Run()
	return rep, sys.Snapshot()
}

// tracedCluster mirrors core.RunClusterContext for the configurations
// the workloads use. The last snapshot of each instance is kept for
// the queue and batching figures.
func tracedCluster(w workload, seed int64, k int, cam *lab.Camera, tr *trace.Tracer, t *traced) *cluster.Report {
	cc := w.clusterConfig(seed, k)
	cfg := cc.Config
	tm := t.timers
	clk := vclock.NewVirtual()
	ccfg := cluster.DefaultConfig(clk, cc.Instances)
	ccfg.Tuning = cc.Tuning.WithDefaults()
	ccfg.Pipeline.BatchPolicy = cfg.BatchPolicy
	if cfg.BatchSize > 0 {
		ccfg.Pipeline.BatchSize = cfg.BatchSize
	}
	ccfg.Pipeline.ChargeCosts = cfg.ChargeCosts
	ccfg.Pipeline.ShedAfter = cfg.ShedAfter
	ccfg.Pipeline.RefConf = cfg.RefConf
	ccfg.Pipeline.Consolidate = cfg.Consolidate
	ccfg.Pipeline.Ref = timedDetector{ccfg.Pipeline.Ref, &tm.ref}
	ccfg.Tracer = tr
	ccfg.OnSnapshot = func(instance int, sn pipeline.Snapshot) {
		for len(t.snaps) <= instance {
			t.snaps = append(t.snaps, pipeline.Snapshot{})
		}
		t.snaps[instance] = sn
	}
	lastArrival := time.Duration(cfg.Streams-1) * cc.ArrivalEvery
	streamDur := time.Duration(cfg.FramesPerStream) * time.Second / 30
	ccfg.Horizon = lastArrival + streamDur + streamDur/2 + 10*time.Second

	arrivals := make([]cluster.Arrival, cfg.Streams)
	for i := range arrivals {
		arrivals[i] = cluster.Arrival{
			At:     time.Duration(i) * cc.ArrivalEvery,
			ID:     i,
			Frames: cfg.FramesPerStream,
			Make: func(tg *detect.TinyGrid) pipeline.StreamSpec {
				return tm.mintStream(cam, tg, cfg, i)
			},
		}
	}
	return cluster.New(ccfg, arrivals).Run()
}

// replayed is the per-call host cost of the filters the engine calls on
// concrete types, measured by replaying an input's frames outside the
// pipeline.
type replayed struct {
	sddCalls, snmCalls, snmFrames int64
	sddNS, snmNS                  int64
	sddAllocs, snmAllocs          uint64
}

// replayFrames bounds the frames one replay synthesizes.
const replayFrames = 2000

// replay mints input k's streams as the facade does and feeds their
// frames through SDD.Process, in stream order, until replayFrames
// frames; SDD survivors go through SNM.ProcessBatch in batches of
// batch frames.
func replay(w workload, seed int64, k int, batch int) (replayed, error) {
	var r replayed
	cam, err := w.camera()
	if err != nil {
		return r, err
	}
	cfg := w.config(seed, k)
	batch = max(1, batch)
	tg := detect.NewTinyGrid(detect.DefaultTinyGridConfig())
	// ReadMemStats flushes the per-P allocation caches, so its counts
	// are exact per call, unlike runtime/metrics between two GCs.
	var ms runtime.MemStats
	readAllocs := func() uint64 {
		runtime.ReadMemStats(&ms)
		return ms.Mallocs
	}
	frames := 0
	for i := 0; i < cfg.Streams && frames < replayFrames; i++ {
		spec := cam.Stream(i, tg, streamOptions(cfg, i))
		var pending []*frame.Frame
		flush := func() {
			if len(pending) == 0 {
				return
			}
			a0 := readAllocs()
			t0 := wallNow()
			spec.SNM.ProcessBatch(pending)
			r.snmNS += int64(wallNow().Sub(t0))
			r.snmAllocs += readAllocs() - a0
			r.snmCalls++
			r.snmFrames += int64(len(pending))
			for _, f := range pending {
				f.Release()
			}
			pending = pending[:0]
		}
		for n := 0; n < spec.Frames && frames < replayFrames; n++ {
			f := spec.Source.Next()
			frames++
			a0 := readAllocs()
			t0 := wallNow()
			pass := spec.SDD.Process(f) != filters.Drop
			r.sddNS += int64(wallNow().Sub(t0))
			r.sddAllocs += readAllocs() - a0
			r.sddCalls++
			if !pass {
				f.Release()
				continue
			}
			if pending = append(pending, f); len(pending) == batch {
				flush()
			}
		}
		flush()
		tg.Unregister(i)
	}
	return r, nil
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

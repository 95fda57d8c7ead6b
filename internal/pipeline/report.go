package pipeline

import (
	"fmt"
	"strings"
	"time"

	"ffsva/internal/filters"
	"ffsva/internal/trace"
)

// StreamReport is the per-stream outcome summary.
type StreamReport struct {
	ID       int
	Frames   int
	Ingested int64
	// Counts indexes by Disposition.
	Counts [NumDispositions]int64
	// FirstCapture/LastDone bound the stream's processing interval.
	FirstCapture, LastDone time.Duration
	// ExecTime is LastDone − FirstCapture (Fig. 6b's per-stream
	// execution time).
	ExecTime time.Duration
	// IngestLag is the worst lateness against the online capture
	// schedule; a real-time stream keeps this near zero.
	IngestLag time.Duration
	// RealizedTOR is the ground-truth target-object ratio over the
	// processed frames.
	RealizedTOR float64
	// SDDStats/SNMStats/TYoloStats are the stream's filter counters.
	SDDStats, SNMStats, TYoloStats filters.Stats
	// SpilledFrames counts frames that took the storage detour (§5.5
	// burst remedy); zero unless SpillToStorage is enabled.
	SpilledFrames int64
	Records       []Record
}

// Report aggregates a finished run.
type Report struct {
	Mode        Mode
	BatchPolicy BatchPolicy
	BatchSize   int

	// Elapsed is first capture to last decision across all streams.
	Elapsed time.Duration
	// TotalFrames is the number of frames ingested.
	TotalFrames int64
	// Throughput is TotalFrames / Elapsed in FPS.
	Throughput float64
	// PerStreamFPS is Throughput divided by the stream count.
	PerStreamFPS float64

	// Latency of frame decisions (capture → final verdict).
	LatencyMean, LatencyP50, LatencyP95, LatencyP99, LatencyMax time.Duration

	// Spans is the wait-vs-service latency decomposition derived from
	// the per-frame trace spans (one row per stage a frame visited, in
	// cascade order); nil when Config.Tracer is unset.
	Spans []trace.StageStat

	// Bottleneck is the timeline recorder's binding-constraint verdict
	// for the run window, rendered as one line; empty when no recorder
	// was attached. core.Run fills it in after the clock drains.
	Bottleneck string

	// StageProcessed counts frames entering each stage (prefetch, SDD,
	// SNM, T-YOLO, reference), i.e. the data behind Fig. 5's
	// per-filter execution ratios.
	StageProcessed [5]int64

	// RefCanvases is how many consolidated canvases the reference model
	// inferred (zero unless Config.Consolidate); RefCanvases /
	// StageProcessed[4] is the consolidation ratio — the factor by which
	// packing divided the reference tier's per-frame charge.
	RefCanvases int64

	// Realtime reports whether every stream kept its online capture
	// schedule (worst ingest lag under half a second).
	Realtime bool

	// Cancelled marks a run stopped early by CancelAll (context
	// cancellation): the report covers only the frames ingested before
	// the stop, each of which still carries a final disposition.
	Cancelled bool

	// Crashed marks an instance killed by fault injection; its in-flight
	// frames drained to DropError and the report is a valid partial run.
	Crashed bool
	// Fault-tolerance accounting: injected fault manifestations, decode
	// retries, and frames shed by the load-shedding bypass.
	FaultsInjected, Retries, ShedFrames int64

	// Device accounting. GPU0Util is the first filter GPU (the paper's
	// GPU-0); FilterGPUUtils lists all filter GPUs when FilterGPUs > 1.
	CPUUtil, GPU0Util, GPU1Util float64
	FilterGPUUtils              []float64
	CPUBusy, GPU0Busy, GPU1Busy time.Duration
	GPU0Switches                int64
	Streams                     []StreamReport
}

// Report collects results; call only after the clock has run to
// completion.
func (s *System) Report() *Report {
	r := &Report{
		Mode:        s.cfg.Mode,
		BatchPolicy: s.cfg.BatchPolicy,
		BatchSize:   s.cfg.BatchSize,
		Cancelled:   s.Cancelled(),
		Crashed:     s.Crashed(),

		FaultsInjected: s.faults.Value(),
		Retries:        s.retries.Value(),
	}
	var first, last time.Duration
	first = -1
	for _, st := range s.streams {
		sr := StreamReport{
			ID:           st.spec.ID,
			Frames:       st.spec.Frames,
			Ingested:     st.ingested,
			FirstCapture: st.firstCap,
			LastDone:     st.lastDone,
			ExecTime:     st.lastDone - st.firstCap,
			IngestLag:    st.ingestLag,
			SDDStats:     st.spec.SDD.Stats(),
			SNMStats:     st.spec.SNM.Stats(),
			TYoloStats:   st.spec.TYolo.Stats(),
			Records:      st.records,
		}
		if st.spill != nil {
			sr.SpilledFrames = st.spill.Stats().Writes
		}
		torFrames := 0
		var decided int64
		for _, rec := range st.records {
			if rec.Done {
				sr.Counts[rec.Disposition]++
				decided++
			}
			if rec.TruthCount > 0 {
				torFrames++
			}
		}
		// Conservation invariant: after the clock has run to completion
		// every ingested frame must carry a final disposition. A hole here
		// means a stage discarded a frame without recording it (the bug
		// the DropClosed disposition exists to prevent) and the accuracy
		// and latency accounting would silently skew.
		if decided != st.ingested {
			panic(fmt.Sprintf("pipeline: stream %d: %d of %d ingested frames have no recorded disposition",
				st.spec.ID, st.ingested-decided, st.ingested))
		}
		if len(st.records) > 0 {
			sr.RealizedTOR = float64(torFrames) / float64(len(st.records))
		}
		r.TotalFrames += st.ingested
		r.ShedFrames += sr.Counts[DropShed]
		if first < 0 || st.firstCap < first {
			first = st.firstCap
		}
		if st.lastDone > last {
			last = st.lastDone
		}
		r.StageProcessed[0] += st.ingested
		r.StageProcessed[1] += sr.SDDStats.Processed
		r.StageProcessed[2] += sr.SNMStats.Processed
		r.StageProcessed[3] += sr.TYoloStats.Processed
		r.Streams = append(r.Streams, sr)
	}
	r.StageProcessed[4] = s.refServed.Value()
	r.RefCanvases = s.canvases.Value()
	if first < 0 {
		first = 0
	}
	r.Elapsed = last - first
	if r.Elapsed > 0 {
		r.Throughput = float64(r.TotalFrames) / r.Elapsed.Seconds()
		if n := len(s.streams); n > 0 {
			r.PerStreamFPS = r.Throughput / float64(n)
		}
	}
	l := s.latencySummary()
	r.LatencyMean, r.LatencyP50, r.LatencyP95, r.LatencyP99, r.LatencyMax = l.Mean, l.P50, l.P95, l.P99, l.Max
	r.Spans = s.cfg.Tracer.Decomposition(s.cfg.Instance)

	r.Realtime = s.cfg.Mode == Online
	for _, sr := range r.Streams {
		if sr.IngestLag > 500*time.Millisecond {
			r.Realtime = false
		}
	}

	elapsed := r.Elapsed
	r.CPUUtil = s.cpu.Utilization(elapsed)
	for _, g := range s.filterGPUs {
		r.FilterGPUUtils = append(r.FilterGPUUtils, g.Utilization(elapsed))
	}
	r.GPU0Util = r.FilterGPUUtils[0]
	r.GPU1Util = s.gpu1.Utilization(elapsed)
	r.CPUBusy = s.cpu.Stats().Busy
	r.GPU0Busy = s.filterGPUs[0].Stats().Busy
	r.GPU1Busy = s.gpu1.Stats().Busy
	for _, g := range s.filterGPUs {
		r.GPU0Switches += g.Stats().Switches
	}
	return r
}

// StageRatio returns the fraction of ingested frames that reached stage i
// (0 prefetch … 4 reference), Fig. 5's per-filter execution ratio.
func (r *Report) StageRatio(i int) float64 {
	if r.StageProcessed[0] == 0 {
		return 0
	}
	return float64(r.StageProcessed[i]) / float64(r.StageProcessed[0])
}

// String renders a human-readable summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s batch=%d: %d frames over %v = %.1f FPS (%.1f/stream)\n",
		r.Mode, r.BatchPolicy, r.BatchSize, r.TotalFrames, r.Elapsed.Round(time.Millisecond), r.Throughput, r.PerStreamFPS)
	fmt.Fprintf(&b, "  latency mean=%v p50=%v p95=%v p99=%v max=%v\n",
		r.LatencyMean.Round(time.Microsecond), r.LatencyP50.Round(time.Microsecond),
		r.LatencyP95.Round(time.Microsecond), r.LatencyP99.Round(time.Microsecond), r.LatencyMax.Round(time.Microsecond))
	if len(r.Spans) > 0 {
		var wait, service time.Duration
		for _, ss := range r.Spans {
			if ss.Wait {
				wait += ss.Total
			} else {
				service += ss.Total
			}
		}
		fmt.Fprintf(&b, "  span decomposition: wait=%v service=%v\n",
			wait.Round(time.Millisecond), service.Round(time.Millisecond))
		fmt.Fprintf(&b, "    %-13s %-8s %8s %12s %12s %12s %14s\n",
			"stage", "class", "frames", "mean", "p50", "p99", "total")
		for _, ss := range r.Spans {
			class := "service"
			if ss.Wait {
				class = "wait"
			}
			fmt.Fprintf(&b, "    %-13s %-8s %8d %12v %12v %12v %14v\n",
				ss.Kind, class, ss.Count,
				ss.Mean.Round(time.Microsecond), ss.P50.Round(time.Microsecond),
				ss.P99.Round(time.Microsecond), ss.Total.Round(time.Microsecond))
		}
	}
	if r.Bottleneck != "" {
		fmt.Fprintf(&b, "  %s\n", r.Bottleneck)
	}
	fmt.Fprintf(&b, "  stage frames: ingest=%d sdd=%d snm=%d t-yolo=%d ref=%d\n",
		r.StageProcessed[0], r.StageProcessed[1], r.StageProcessed[2], r.StageProcessed[3], r.StageProcessed[4])
	fmt.Fprintf(&b, "  devices: cpu=%.1f%% gpu0=%.1f%% (switches=%d) gpu1=%.1f%%",
		100*r.CPUUtil, 100*r.GPU0Util, r.GPU0Switches, 100*r.GPU1Util)
	if r.Mode == Online {
		fmt.Fprintf(&b, "\n  realtime=%v", r.Realtime)
	}
	if r.Crashed {
		b.WriteString("\n  CRASHED (fault injection)")
	}
	if r.FaultsInjected > 0 || r.Retries > 0 || r.ShedFrames > 0 {
		fmt.Fprintf(&b, "\n  faults: injected=%d retries=%d shed=%d",
			r.FaultsInjected, r.Retries, r.ShedFrames)
	}
	return b.String()
}

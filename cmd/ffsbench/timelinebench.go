package main

import (
	"fmt"
	"runtime"
	"time"

	"ffsva/internal/experiments"

	"ffsva"
)

// timelineBenchReport is the BENCH_timeline.json document: wall-clock
// throughput of the traced standard workload with the timeline flight
// recorder off versus on. Tracing is on in both configurations, so the
// delta isolates what the tentpole adds on top of PR-5's budget: the
// per-tick sampler (snapshot walk + KindLoads read + counter pushes)
// and the end-of-run attribution pass.
type timelineBenchReport struct {
	Generated string `json:"generated"`
	Frames    int64  `json:"frames"`
	Reps      int    `json:"reps"`
	NumCPU    int    `json:"num_cpu"`
	// OffFPS/OnFPS are each rep-set's best wall-clock FPS (best-of damps
	// scheduler noise; the gate compares steady-state capability).
	OffFPS float64 `json:"timeline_off_fps"`
	OnFPS  float64 `json:"timeline_on_fps"`
	// OverheadPct is (off-on)/off in percent; the gate fails above
	// MaxOverheadPct.
	OverheadPct    float64 `json:"overhead_pct"`
	MaxOverheadPct float64 `json:"max_overhead_pct"`
	// Ticks and Verdict describe the last on-run's recording: the
	// sampler must actually have sampled, and the attribution engine
	// must have produced a verdict, for the overhead number to mean
	// anything.
	Ticks   int64  `json:"ticks"`
	Verdict string `json:"verdict"`
	Gate    string `json:"gate"`
}

const benchTimelinePath = "BENCH_timeline.json"

// timelineMaxOverheadPct is the sampler + attribution budget on top of
// tracing-only.
const timelineMaxOverheadPct = 3.0

func (r *timelineBenchReport) Tables() []*experiments.Table {
	return []*experiments.Table{overheadTable("timeline", "flight-recorder overhead on the traced workload, off vs on", "timeline", r.OffFPS, r.OnFPS, r.OverheadPct,
		fmt.Sprintf("best of %d wall-clock reps over %d frames; gate: overhead < %.0f%%", r.Reps, r.Frames, r.MaxOverheadPct),
		fmt.Sprintf("on-run recorded %d ticks; %s", r.Ticks, r.Verdict),
		"gate: "+r.Gate,
		"written to "+benchTimelinePath)}
}

// runTimelineBench times the traced standard workload with the flight
// recorder off and on, writes BENCH_timeline.json, and (with gate set)
// fails when the recorder costs more than the overhead budget.
func runTimelineBench(scale experiments.Scale, gate bool) (tabler, error) {
	rep := &timelineBenchReport{
		Generated:      time.Now().Format(time.RFC3339),
		NumCPU:         runtime.NumCPU(),
		MaxOverheadPct: timelineMaxOverheadPct,
	}
	// Fresh tracer and recorder per run keep retention work comparable.
	// The off run still pays for tracing — the delta is the recorder
	// alone.
	p, err := runPaired(scale, func(cfg *ffsva.Config, on bool) func(*ffsva.Result) error {
		cfg.MetricsEvery = 250 * time.Millisecond     // same cadence both ways
		cfg.OnSnapshot = func(int, ffsva.Snapshot) {} // force the monitor on in both configs
		cfg.Trace = ffsva.NewTracer(ffsva.TraceOptions{})
		if !on {
			return nil
		}
		rec := ffsva.NewTimeline(ffsva.TimelineOptions{})
		cfg.Timeline = rec
		return func(res *ffsva.Result) error {
			rep.Ticks = rec.TickCount()
			rep.Verdict = res.Pipeline.Bottleneck
			return rec.Close()
		}
	})
	if err != nil {
		return nil, err
	}
	if rep.Ticks == 0 {
		return nil, fmt.Errorf("timeline bench: the on-run recorded no ticks — the sampler never ran")
	}
	if rep.Verdict == "" {
		return nil, fmt.Errorf("timeline bench: the on-run produced no bottleneck verdict")
	}
	rep.Frames, rep.Reps = p.frames, p.reps
	rep.OffFPS, rep.OnFPS, rep.OverheadPct = p.off, p.on, p.overheadPct()
	rep.Gate = "skipped: single-core host; wall-clock overhead deltas are scheduler noise without a spare core"
	if rep.NumCPU >= 2 {
		rep.Gate = overheadVerdict("timeline", p, timelineMaxOverheadPct)
	}
	return rep, record(benchTimelinePath, rep, gate, rep.Gate)
}

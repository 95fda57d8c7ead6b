package main

import (
	"bytes"
	"fmt"
	"time"

	"ffsva/internal/experiments"

	"ffsva"
)

// traceReport is the BENCH_trace.json document: wall-clock throughput of
// the standard workload with tracing off versus on. The off run goes
// through the nil-tracer fast path (one pointer check per stage), so it
// doubles as the regression gate for the instrumentation itself.
type traceReport struct {
	Generated string `json:"generated"`
	Frames    int64  `json:"frames"`
	Reps      int    `json:"reps"`
	// OffFPS/OnFPS are each rep-set's best wall-clock FPS (best-of damps
	// scheduler noise; the gate compares steady-state capability).
	OffFPS float64 `json:"tracing_off_fps"`
	OnFPS  float64 `json:"tracing_on_fps"`
	// OverheadPct is (off-on)/off in percent; the gate fails above
	// MaxOverheadPct.
	OverheadPct    float64 `json:"overhead_pct"`
	MaxOverheadPct float64 `json:"max_overhead_pct"`
	// FinishedFrames and TraceBytes describe the on-run's recorded
	// trace; the export is structurally validated before reporting.
	FinishedFrames int64  `json:"finished_frames"`
	TraceBytes     int    `json:"trace_bytes"`
	Gate           string `json:"gate"`
}

const benchTracePath = "BENCH_trace.json"

// traceMaxOverheadPct is the tracing-on throughput regression budget.
const traceMaxOverheadPct = 3.0

func (r *traceReport) Tables() []*experiments.Table {
	return []*experiments.Table{overheadTable("trace", "per-frame tracing overhead, off vs on", "tracing", r.OffFPS, r.OnFPS, r.OverheadPct,
		fmt.Sprintf("best of %d wall-clock reps over %d frames; gate: overhead < %.0f%%", r.Reps, r.Frames, r.MaxOverheadPct),
		fmt.Sprintf("on-run recorded %d frame traces, exported %d bytes of trace-event JSON", r.FinishedFrames, r.TraceBytes),
		"gate: "+r.Gate,
		"written to "+benchTracePath)}
}

// runTraceBench times the standard offline workload with tracing off and
// on, writes BENCH_trace.json, and (with gate set) fails when the on-run
// costs more than the overhead budget.
func runTraceBench(scale experiments.Scale, gate bool) (tabler, error) {
	// A fresh tracer per on-run keeps retention work comparable.
	var last *ffsva.Tracer
	p, err := runPaired(scale, func(cfg *ffsva.Config, on bool) func(*ffsva.Result) error {
		if on {
			last = ffsva.NewTracer(ffsva.TraceOptions{})
			cfg.Trace = last
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep := &traceReport{
		Generated:      time.Now().Format(time.RFC3339),
		Frames:         p.frames,
		Reps:           p.reps,
		OffFPS:         p.off,
		OnFPS:          p.on,
		OverheadPct:    p.overheadPct(),
		MaxOverheadPct: traceMaxOverheadPct,
		Gate:           overheadVerdict("tracing", p, traceMaxOverheadPct),
	}

	// Export the last on-run's trace and structurally validate it: the
	// bench doubles as an end-to-end check that the export is loadable.
	var buf bytes.Buffer
	if err := last.WriteTraceEvents(&buf); err != nil {
		return nil, err
	}
	if err := ffsva.ValidateTrace(buf.Bytes()); err != nil {
		return nil, fmt.Errorf("trace export failed validation: %w", err)
	}
	rep.FinishedFrames = last.FinishedFrames()
	rep.TraceBytes = buf.Len()
	return rep, record(benchTracePath, rep, gate, rep.Gate)
}

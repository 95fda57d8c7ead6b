package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"ffsva/internal/cluster"
	"ffsva/internal/detect"
	"ffsva/internal/experiments"
	"ffsva/internal/lab"
	"ffsva/internal/pipeline"
	"ffsva/internal/vclock"

	"ffsva"
)

// Every BENCH job follows one convention. Each gate verdict is
// "ok: ...", "skipped: <reason>" (never a faked number), or
// "FAIL: ...". The job always writes its document; under -gate any FAIL
// verdict exits non-zero.

// record writes doc as the BENCH document at path and, under -gate,
// returns gateError of the job's verdicts.
func record(path string, doc any, gate bool, verdicts ...string) error {
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if !gate {
		return nil
	}
	return gateError(verdicts...)
}

// gateError joins every verdict that starts with "FAIL" into one error,
// or returns nil when there is none.
func gateError(verdicts ...string) error {
	var fails []string
	for _, v := range verdicts {
		if strings.HasPrefix(v, "FAIL") {
			fails = append(fails, v)
		}
	}
	if len(fails) == 0 {
		return nil
	}
	return fmt.Errorf("gate: %s", strings.Join(fails, " | "))
}

// baseline is a BENCH document that can serve as a gate's baseline.
type baseline interface {
	// usable reports whether the decoded document is in the current
	// format.
	usable() bool
}

// loadBaseline reads the committed BENCH document at path into b; a job
// calls it before it overwrites the file. It returns "" when b holds a
// usable baseline, and otherwise the "skipped:" verdict that says why.
func loadBaseline(path string, b baseline) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Sprintf("skipped: no committed baseline (%v)", err)
	}
	if err := json.Unmarshal(data, b); err != nil || !b.usable() {
		return "skipped: baseline " + path + " unreadable or pre-sweep format"
	}
	return ""
}

// standardConfig is the standard workload the kernels, trace and
// timeline jobs time on the wall clock: two offline streams of half the
// scale's offline frames, at least 100 each. The virtual clock advances
// as fast as the host computes, so wall-clock FPS is host throughput.
func standardConfig(scale experiments.Scale) ffsva.Config {
	cfg := ffsva.DefaultConfig()
	cfg.Streams = 2
	cfg.FramesPerStream = max(scale.OfflineFrames/2, 100)
	return cfg
}

// timedRun runs cfg once and returns the result and its wall-clock FPS.
func timedRun(cfg ffsva.Config) (*ffsva.Result, float64, error) {
	start := time.Now()
	res, err := ffsva.Run(cfg)
	if err != nil {
		return nil, 0, err
	}
	return res, float64(res.Pipeline.TotalFrames) / time.Since(start).Seconds(), nil
}

// paired is the outcome of an off/on overhead measurement.
type paired struct {
	frames  int64
	reps    int
	off, on float64 // best wall-clock FPS of each side
}

// overheadPct is (off-on)/off in percent.
func (p paired) overheadPct() float64 {
	if p.off <= 0 {
		return 0
	}
	return 100 * (p.off - p.on) / p.off
}

// runPaired times the standard workload with a feature off and on. One
// untimed off run warms model caches and pools; then reps off/on pairs
// run interleaved to damp drift, and each side keeps its best FPS:
// best-of damps scheduler noise, so the gate compares steady-state
// capability. set configures one run's copy of the config and may
// return a hook, called with the run's result after the timing.
func runPaired(scale experiments.Scale, set func(cfg *ffsva.Config, on bool) func(*ffsva.Result) error) (paired, error) {
	p := paired{reps: 3}
	if scale.Name == "full" {
		p.reps = 5
	}
	run := func(on bool) (float64, error) {
		cfg := standardConfig(scale)
		after := set(&cfg, on)
		res, fps, err := timedRun(cfg)
		if err != nil {
			return 0, err
		}
		p.frames = res.Pipeline.TotalFrames
		if after != nil {
			err = after(res)
		}
		return fps, err
	}
	if _, err := run(false); err != nil {
		return p, err
	}
	for i := 0; i < p.reps; i++ {
		off, err := run(false)
		if err != nil {
			return p, err
		}
		on, err := run(true)
		if err != nil {
			return p, err
		}
		p.off, p.on = max(p.off, off), max(p.on, on)
	}
	return p, nil
}

// overheadVerdict is the ok/FAIL verdict of an off/on overhead budget.
func overheadVerdict(what string, p paired, budgetPct float64) string {
	if pct := p.overheadPct(); pct > budgetPct {
		return fmt.Sprintf("FAIL: %s overhead %.2f%% exceeds the %.0f%% budget (off %.1f fps, on %.1f fps)",
			what, pct, budgetPct, p.off, p.on)
	}
	return fmt.Sprintf("ok: %s overhead %.2f%% within the %.0f%% budget", what, p.overheadPct(), budgetPct)
}

// overheadTable renders an off/on overhead job: one row per side, the
// on row with its overhead.
func overheadTable(id, title, feature string, offFPS, onFPS, overheadPct float64, notes ...string) *experiments.Table {
	return &experiments.Table{
		ID:      id,
		Title:   title,
		Columns: []string{"config", "fps", "overhead"},
		Notes:   notes,
		Rows: [][]string{
			{feature + " off", fmt.Sprintf("%.1f fps", offFPS), "-"},
			{feature + " on", fmt.Sprintf("%.1f fps", onFPS), fmt.Sprintf("%.2f%%", overheadPct)},
		},
	}
}

// fleetShape is the fixed fleet a cluster-shaped sweep runs against; a
// baseline recorded at another shape is not comparable.
type fleetShape struct {
	Instances       int `json:"instances"`
	FramesPerStream int `json:"frames_per_stream"`
}

// differs returns the "skipped:" verdict for a baseline recorded at
// another shape, or "".
func (s fleetShape) differs(prev fleetShape) string {
	if prev == s {
		return ""
	}
	return fmt.Sprintf("skipped: baseline shape differs (%d instances x %d frames vs %d x %d)",
		prev.Instances, prev.FramesPerStream, s.Instances, s.FramesPerStream)
}

// fleetRun is one level of a fleet sweep.
type fleetRun struct {
	rep        *cluster.Report
	incomplete int // streams that did not decide all their frames
	// sustained: real-time pacing intact, no rejection, and no shed,
	// errored or incomplete stream.
	sustained bool
}

// runFleet runs n concurrent tiny streams, all arriving at t=0, against
// the fleet under a placement policy, with object-level consolidation
// on or off. It runs on the virtual clock with charged costs, so the
// result does not depend on the host.
func runFleet(cam *lab.Camera, shape fleetShape, policy string, consolidate bool, n int) fleetRun {
	frames := shape.FramesPerStream
	cfg := cluster.DefaultConfig(vclock.NewVirtual(), shape.Instances)
	cfg.Placement.Policy = policy
	cfg.Pipeline.Consolidate = consolidate
	cfg.Horizon = time.Duration(frames)*time.Second/30 + 13*time.Second
	arr := make([]cluster.Arrival, n)
	for i := range arr {
		arr[i] = cluster.Arrival{
			ID:     i,
			Frames: frames,
			Make: func(tg *detect.TinyGrid) pipeline.StreamSpec {
				return cam.Stream(i, tg, lab.StreamOptions{Seed: int64(100 + i), Frames: frames})
			},
		}
	}
	r := fleetRun{rep: cluster.New(cfg, arr).Run()}
	for i := 0; i < n; i++ {
		if r.rep.StreamFrames[i] != int64(frames) {
			r.incomplete++
		}
	}
	r.sustained = r.rep.Realtime && r.rep.Rejects() == 0 && r.incomplete == 0 &&
		r.rep.Drops[pipeline.DropShed] == 0 && r.rep.Drops[pipeline.DropError] == 0
	return r
}

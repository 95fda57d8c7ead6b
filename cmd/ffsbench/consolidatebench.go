package main

import (
	"fmt"
	"runtime"
	"time"

	"ffsva/internal/cluster/sched"
	"ffsva/internal/core"
	"ffsva/internal/experiments"
	"ffsva/internal/lab"
	"ffsva/internal/pipeline"
)

const benchConsolidatePath = "BENCH_consolidate.json"

// consolidateLadder refines the cluster ladder's 448→512 jump: the
// committed full-frame knee is 448, so the consolidated sweep probes
// the gap the coarse ladder skipped.
var consolidateLadder = []int{448, 464, 480, 496, 512}

// refBoundStreams is the stream grid for the reference-bound tier and
// the accuracy frontier.
var refBoundStreams = []int{8, 32, 64}

// minPackRatio is the fewest reference frames per canvas at which
// consolidation counts as amortizing its canvases.
const minPackRatio = 1.5

// refBoundTOR makes the reference tier the binding device: at this
// target-object ratio a large share of frames survives the cascade, so
// GPU-1 saturates long before ingest or the filter GPU do.
const refBoundTOR = 0.4

// consolidateFleetLevel is one consolidated run at cluster-bench shape.
type consolidateFleetLevel struct {
	Streams    int   `json:"streams"`
	Sustained  bool  `json:"sustained"`
	Realtime   bool  `json:"realtime"`
	Sheds      int64 `json:"sheds"`
	Errors     int64 `json:"errors"`
	Incomplete int   `json:"incomplete_streams"`
	RefFrames  int64 `json:"ref_frames"`
	Canvases   int64 `json:"canvases"`
}

// refBoundRow is one run of the reference-bound tier: a high-TOR online
// workload where GPU-1 is the bottleneck, with and without
// consolidation. Consolidated rows also carry the fidelity score —
// the accuracy frontier's data points.
type refBoundRow struct {
	Streams      int     `json:"streams"`
	Consolidated bool    `json:"consolidated"`
	RefFrames    int64   `json:"ref_frames"`
	Canvases     int64   `json:"canvases,omitempty"`
	PackRatio    float64 `json:"pack_ratio,omitempty"`
	GPU1Util     float64 `json:"gpu1_util"`
	P99Ms        float64 `json:"p99_ms"`
	ElapsedMs    float64 `json:"elapsed_ms"`
	ErrorRate    float64 `json:"error_rate"`
	ScoredFrames int64   `json:"scored_frames,omitempty"`
	ExactRate    float64 `json:"exact_rate,omitempty"`
	MeanAbsDelta float64 `json:"mean_abs_delta,omitempty"`
	LostObjects  int64   `json:"lost_objects,omitempty"`
}

// consolidateBenchReport is the BENCH_consolidate.json document.
// Everything runs on the virtual clock with charged stage costs, so
// every figure is deterministic and host-independent.
type consolidateBenchReport struct {
	Generated string `json:"generated"`
	NumCPU    int    `json:"num_cpu"`
	fleetShape
	// BaselineStreams is the committed full-frame knee from
	// BENCH_cluster.json that the consolidated fleet must beat.
	BaselineStreams int                     `json:"baseline_streams"`
	Fleet           []consolidateFleetLevel `json:"fleet"`
	MaxSustained    int                     `json:"max_sustained_streams"`
	RefBound        []refBoundRow           `json:"ref_bound"`
	Gate            string                  `json:"gate"`
}

func (r *consolidateBenchReport) usable() bool { return r.MaxSustained > 0 }

func (r *consolidateBenchReport) Tables() []*experiments.Table {
	fleet := &experiments.Table{
		ID:      "consolidate",
		Title:   "consolidated fleet: max sustained concurrent streams vs the full-frame baseline",
		Columns: []string{"streams", "sustained", "ref frames", "canvases"},
		Notes: []string{
			fmt.Sprintf("%d instances, %d frames per stream, least-load placement, consolidation on", r.Instances, r.FramesPerStream),
			fmt.Sprintf("max sustained %d vs %d full-frame baseline (BENCH_cluster.json)", r.MaxSustained, r.BaselineStreams),
			"gate: " + r.Gate,
			"written to " + benchConsolidatePath,
		},
	}
	for _, l := range r.Fleet {
		fleet.Rows = append(fleet.Rows, []string{
			fmt.Sprintf("%d", l.Streams), fmt.Sprintf("%v", l.Sustained),
			fmt.Sprintf("%d", l.RefFrames), fmt.Sprintf("%d", l.Canvases),
		})
	}
	rb := &experiments.Table{
		ID:      "consolidate-refbound",
		Title:   "reference-bound tier: latency and GPU-1 load with and without consolidation",
		Columns: []string{"streams", "consolidated", "ref frames", "canvases", "pack", "gpu1", "p99 ms", "elapsed ms", "err rate", "exact rate", "mean|Δ|"},
		Notes: []string{
			fmt.Sprintf("online, TOR %.1f (reference tier is the bottleneck), virtual clock", refBoundTOR),
			"pack = reference frames per canvas: the factor by which one canvas inference replaces per-frame inferences",
			"exact rate / mean|Δ| score consolidated counts against the full-frame reference on the same frames (the accuracy frontier)",
		},
	}
	for _, row := range r.RefBound {
		pack, exact, delta := "-", "-", "-"
		if row.Consolidated {
			pack = fmt.Sprintf("%.1f", row.PackRatio)
			exact = fmt.Sprintf("%.3f", row.ExactRate)
			delta = fmt.Sprintf("%.3f", row.MeanAbsDelta)
		}
		rb.Rows = append(rb.Rows, []string{
			fmt.Sprintf("%d", row.Streams), fmt.Sprintf("%v", row.Consolidated),
			fmt.Sprintf("%d", row.RefFrames), fmt.Sprintf("%d", row.Canvases), pack,
			fmt.Sprintf("%.2f", row.GPU1Util), fmt.Sprintf("%.0f", row.P99Ms),
			fmt.Sprintf("%.0f", row.ElapsedMs), fmt.Sprintf("%.4f", row.ErrorRate),
			exact, delta,
		})
	}
	return []*experiments.Table{fleet, rb}
}

// runRefBoundRow runs the high-TOR online workload once.
func runRefBoundRow(n, frames int, consolidate bool) (refBoundRow, error) {
	cfg := core.DefaultConfig()
	cfg.TOR = refBoundTOR
	cfg.Streams = n
	cfg.FramesPerStream = frames
	cfg.Mode = pipeline.Online
	cfg.Consolidate = consolidate
	res, err := core.Run(cfg)
	if err != nil {
		return refBoundRow{}, err
	}
	rep := res.Pipeline
	row := refBoundRow{
		Streams:      n,
		Consolidated: consolidate,
		RefFrames:    rep.StageProcessed[4],
		Canvases:     rep.RefCanvases,
		GPU1Util:     rep.GPU1Util,
		P99Ms:        float64(rep.LatencyP99) / float64(time.Millisecond),
		ElapsedMs:    float64(rep.Elapsed) / float64(time.Millisecond),
		ErrorRate:    res.Accuracy.ErrorRate(),
	}
	if consolidate {
		if row.Canvases > 0 {
			row.PackRatio = float64(row.RefFrames) / float64(row.Canvases)
		}
		var score lab.ConsolidationScore
		for _, sr := range rep.Streams {
			score.Merge(lab.ScoreConsolidation(sr.Records))
		}
		row.ScoredFrames = score.Frames
		row.ExactRate = score.ExactRate()
		row.MeanAbsDelta = score.MeanAbsDelta
		row.LostObjects = score.LostObjects
	}
	return row, nil
}

// runConsolidateBench sweeps the consolidated fleet ladder past the
// committed full-frame knee, measures the reference-bound tier with and
// without consolidation, records everything to BENCH_consolidate.json,
// and (with gate set) fails when the consolidated knee does not exceed
// the full-frame baseline or regresses below its own committed figure.
func runConsolidateBench(scale experiments.Scale, gate bool) (tabler, error) {
	cam, err := lab.CarCamera(0.1)
	if err != nil {
		return nil, err
	}
	rbFrames := 90
	if scale.Name == "full" {
		rbFrames = 180
	}
	r := &consolidateBenchReport{
		Generated:  time.Now().Format(time.RFC3339),
		NumCPU:     runtime.NumCPU(),
		fleetShape: benchFleet(scale),
	}
	var full clusterBenchReport
	skip := loadBaseline(benchClusterPath, &full)
	r.BaselineStreams = full.MaxSustained[sched.PolicyLeastLoad]
	var prev consolidateBenchReport
	if skip == "" {
		skip = loadBaseline(benchConsolidatePath, &prev)
	}
	for _, n := range consolidateLadder {
		run := runFleet(cam, r.fleetShape, sched.PolicyLeastLoad, true, n)
		lvl := consolidateFleetLevel{
			Streams:    n,
			Sustained:  run.sustained,
			Realtime:   run.rep.Realtime,
			Sheds:      run.rep.Drops[pipeline.DropShed],
			Errors:     run.rep.Drops[pipeline.DropError],
			Incomplete: run.incomplete,
		}
		for _, ir := range run.rep.Instances {
			lvl.RefFrames += ir.StageProcessed[4]
			lvl.Canvases += ir.RefCanvases
		}
		r.Fleet = append(r.Fleet, lvl)
		if !run.sustained {
			break
		}
		r.MaxSustained = n
	}
	for _, n := range refBoundStreams {
		for _, consolidate := range []bool{false, true} {
			row, err := runRefBoundRow(n, rbFrames, consolidate)
			if err != nil {
				return nil, err
			}
			r.RefBound = append(r.RefBound, row)
		}
	}
	r.Gate = consolidateGate(r, full.fleetShape, &prev, skip)
	return r, record(benchConsolidatePath, r, gate, r.Gate)
}

// consolidateGate fails when consolidation does not amortize canvases,
// whatever the baselines. It then compares the consolidated knee with
// the full-frame knee (recorded at fullShape) and with the committed
// consolidated figure; skip is the verdict when either baseline is
// missing or unreadable.
func consolidateGate(r *consolidateBenchReport, fullShape fleetShape, prev *consolidateBenchReport, skip string) string {
	for _, row := range r.RefBound {
		if row.Consolidated && row.PackRatio < minPackRatio {
			return fmt.Sprintf("FAIL: pack ratio %.2f at %d streams: consolidation is not amortizing canvases", row.PackRatio, row.Streams)
		}
	}
	if skip == "" {
		skip = r.differs(fullShape)
	}
	if skip == "" {
		skip = r.differs(prev.fleetShape)
	}
	switch {
	case skip != "":
		return skip
	case r.MaxSustained <= r.BaselineStreams:
		return fmt.Sprintf("FAIL: consolidated fleet sustains %d streams, not above the %d full-frame baseline",
			r.MaxSustained, r.BaselineStreams)
	case r.MaxSustained < prev.MaxSustained:
		return fmt.Sprintf("FAIL: consolidated fleet sustains %d streams, committed baseline sustained %d",
			r.MaxSustained, prev.MaxSustained)
	}
	return fmt.Sprintf("ok: consolidated fleet sustains %d streams vs %d full-frame baseline",
		r.MaxSustained, r.BaselineStreams)
}

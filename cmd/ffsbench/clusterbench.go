package main

import (
	"fmt"
	"runtime"
	"time"

	"ffsva/internal/cluster/sched"
	"ffsva/internal/experiments"
	"ffsva/internal/lab"
	"ffsva/internal/pipeline"
)

const benchClusterPath = "BENCH_cluster.json"

// clusterLadder is the concurrent-stream counts tried in ascending
// order; the sweep stops at the first level the cluster cannot sustain.
var clusterLadder = []int{64, 128, 256, 320, 384, 448, 512, 640, 768, 1024}

// clusterLevel is one ladder run under one placement policy.
type clusterLevel struct {
	Policy     string `json:"policy"`
	Streams    int    `json:"streams"`
	Sustained  bool   `json:"sustained"`
	Realtime   bool   `json:"realtime"`
	Reforwards int    `json:"reforwards"`
	Sheds      int64  `json:"sheds"`
	Errors     int64  `json:"errors"`
	Incomplete int    `json:"incomplete_streams"`
}

// clusterBenchReport is the BENCH_cluster.json document: the maximum
// number of concurrent streams a fixed fleet sustains in real time
// under each placement policy. Everything runs on the virtual clock
// with charged stage costs, so the figures are deterministic and
// host-independent — the regression gate compares them exactly.
type clusterBenchReport struct {
	Generated string `json:"generated"`
	NumCPU    int    `json:"num_cpu"`
	fleetShape
	Levels []clusterLevel `json:"levels"`
	// MaxSustained maps placement policy -> the highest ladder level the
	// cluster carried with real-time pacing intact, zero rejections, and
	// zero shed or errored frames.
	MaxSustained map[string]int `json:"max_sustained_streams"`
	Gate         string         `json:"gate"`
}

func (r *clusterBenchReport) usable() bool { return len(r.MaxSustained) > 0 }

func (r *clusterBenchReport) Tables() []*experiments.Table {
	t := &experiments.Table{
		ID:      "cluster",
		Title:   "max sustained concurrent streams, fixed fleet, by placement policy",
		Columns: []string{"policy", "streams", "sustained", "reforwards", "sheds"},
		Notes: []string{
			fmt.Sprintf("%d instances, %d frames per stream, all arrivals at t=0, virtual clock with charged costs", r.Instances, r.FramesPerStream),
			fmt.Sprintf("max sustained: least-load=%d hash=%d", r.MaxSustained[sched.PolicyLeastLoad], r.MaxSustained[sched.PolicyHash]),
			"gate: " + r.Gate,
			"written to " + benchClusterPath,
		},
	}
	for _, l := range r.Levels {
		t.Rows = append(t.Rows, []string{
			l.Policy, fmt.Sprintf("%d", l.Streams), fmt.Sprintf("%v", l.Sustained),
			fmt.Sprintf("%d", l.Reforwards), fmt.Sprintf("%d", l.Sheds),
		})
	}
	return []*experiments.Table{t}
}

// benchFleet is the fleet shape of the cluster and consolidate sweeps:
// two instances, 2 s of video per stream (4 s at full scale).
func benchFleet(scale experiments.Scale) fleetShape {
	if scale.Name == "full" {
		return fleetShape{Instances: 2, FramesPerStream: 120}
	}
	return fleetShape{Instances: 2, FramesPerStream: 60}
}

// runClusterBench sweeps the concurrent-stream ladder under both
// placement policies, records the max sustained level per policy to
// BENCH_cluster.json, and (with gate set) fails when either figure
// regresses below the committed baseline.
func runClusterBench(scale experiments.Scale, gate bool) (tabler, error) {
	cam, err := lab.CarCamera(0.1)
	if err != nil {
		return nil, err
	}
	r := &clusterBenchReport{
		Generated:    time.Now().Format(time.RFC3339),
		NumCPU:       runtime.NumCPU(),
		fleetShape:   benchFleet(scale),
		MaxSustained: map[string]int{},
	}
	for _, policy := range []string{sched.PolicyLeastLoad, sched.PolicyHash} {
		for _, n := range clusterLadder {
			run := runFleet(cam, r.fleetShape, policy, false, n)
			r.Levels = append(r.Levels, clusterLevel{
				Policy:     policy,
				Streams:    n,
				Sustained:  run.sustained,
				Realtime:   run.rep.Realtime,
				Reforwards: run.rep.Reforwards(),
				Sheds:      run.rep.Drops[pipeline.DropShed],
				Errors:     run.rep.Drops[pipeline.DropError],
				Incomplete: run.incomplete,
			})
			if !run.sustained {
				break
			}
			r.MaxSustained[policy] = n
		}
	}
	r.Gate = clusterGate(r)
	return r, record(benchClusterPath, r, gate, r.Gate)
}

// clusterGate compares the sweep against the committed baseline. The
// sweep is deterministic, so any drop below it is a real capacity loss.
func clusterGate(r *clusterBenchReport) string {
	var prev clusterBenchReport
	if skip := loadBaseline(benchClusterPath, &prev); skip != "" {
		return skip
	}
	if skip := r.differs(prev.fleetShape); skip != "" {
		return skip
	}
	for _, policy := range []string{sched.PolicyLeastLoad, sched.PolicyHash} {
		if r.MaxSustained[policy] < prev.MaxSustained[policy] {
			return fmt.Sprintf("FAIL: %s sustains %d streams, baseline sustained %d",
				policy, r.MaxSustained[policy], prev.MaxSustained[policy])
		}
	}
	return fmt.Sprintf("ok: least-load=%d hash=%d sustained streams, no regression vs baseline",
		r.MaxSustained[sched.PolicyLeastLoad], r.MaxSustained[sched.PolicyHash])
}

package main

import (
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"ffsva"
	"ffsva/internal/lab"
)

// workload is one named input family, driven through the public facade
// (ffsva.Run or ffsva.RunCluster).
type workload struct {
	Name string
	// Why is the one-line reason the workload exists; BENCHMARK.json and
	// README.md repeat it.
	Why string
	// Inputs is how many distinct inputs one run covers. Input k of a
	// run with seed s uses Config.Seed = inputSeed(s, k). The modeled
	// figures pool every input once; the host figures are medians over
	// every timed call.
	Inputs int
	// Fleet selects ffsva.RunCluster with Instances instances.
	Fleet     bool
	Instances int
	base      ffsva.Config
}

var workloads = []workload{
	{
		Name:   "offline-sparse",
		Why:    "offline car camera at TOR 0.10: SDD drops about 90% of frames, so synthesis and SDD set host cost",
		Inputs: 8,
		base: facadeConfig(func(c *ffsva.Config) {
			c.Workload = ffsva.WorkloadCar
			c.TOR = 0.10
			c.Mode = ffsva.Offline
			c.Streams = 4
			c.FramesPerStream = 1000
			c.BatchPolicy = ffsva.BatchDynamic
		}),
	},
	{
		Name:   "online-crowd",
		Why:    "online crowd camera at TOR 0.40: about a third of frames reach the reference model, which saturates GPU-1",
		Inputs: 6,
		base: facadeConfig(func(c *ffsva.Config) {
			c.Workload = ffsva.WorkloadPerson
			c.TOR = 0.40
			c.Mode = ffsva.Online
			c.Streams = 8
			c.FramesPerStream = 300
		}),
	},
	{
		Name:      "fleet",
		Why:       "256 short crowd streams on a 2-instance cluster, all arriving at once: stresses per-stream set-up, state and goroutines",
		Inputs:    3,
		Fleet:     true,
		Instances: 2,
		base: facadeConfig(func(c *ffsva.Config) {
			c.Workload = ffsva.WorkloadPerson
			c.TOR = 0.40
			c.Mode = ffsva.Online
			c.Streams = 256
			c.FramesPerStream = 45
		}),
	},
}

// facadeConfig is the facade default with edit applied.
func facadeConfig(edit func(*ffsva.Config)) ffsva.Config {
	c := ffsva.DefaultConfig()
	edit(&c)
	return c
}

func lookup(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// inputSeed derives the Config.Seed of input k from the run's seed.
func inputSeed(seed int64, k int) int64 { return seed*1000 + int64(k) }

// offered is the number of frames one input offers.
func (w workload) offered() int64 {
	return int64(w.base.Streams) * int64(w.base.FramesPerStream)
}

// config returns the facade configuration for input k.
func (w workload) config(seed int64, k int) ffsva.Config {
	c := w.base
	c.Seed = inputSeed(seed, k)
	return c
}

// clusterConfig returns the cluster configuration for input k: every
// stream arrives at t=0 and least-load placement spreads them.
func (w workload) clusterConfig(seed int64, k int) ffsva.ClusterConfig {
	c := ffsva.DefaultClusterConfig()
	c.Config = w.config(seed, k)
	c.Instances = w.Instances
	c.ArrivalEvery = 0
	c.Placement.Policy = ffsva.PlacementLeastLoad
	return c
}

// camera trains (or fetches from the process cache) the workload's
// camera models.
func (w workload) camera() (*lab.Camera, error) {
	if w.base.Workload == ffsva.WorkloadPerson {
		return lab.PersonCamera(w.base.TOR)
	}
	return lab.CarCamera(w.base.TOR)
}

// call runs input k through the facade.
func (w workload) call(seed int64, k int) (*outcome, error) {
	if w.Fleet {
		rep, err := ffsva.RunCluster(w.clusterConfig(seed, k))
		if err != nil {
			return nil, err
		}
		return newOutcome(w, rep.Instances, rep), nil
	}
	res, err := ffsva.Run(w.config(seed, k))
	if err != nil {
		return nil, err
	}
	return newOutcome(w, []*ffsva.Report{res.Pipeline}, nil), nil
}

// outcome is what one input produced, reduced to the figures the
// benchmark reports and checks.
type outcome struct {
	Offered int64
	// Decided counts frames with any final disposition; Cascade those
	// whose disposition is a cascade verdict (drop-sdd, drop-snm,
	// drop-t-yolo, detected). Offered − Cascade frames failed: closed,
	// errored, shed, refused admission or never decided.
	Decided, Cascade int64
	// Digest hashes every decided frame's (stream, seq, disposition,
	// reference count) in (stream, seq) order.
	Digest uint64
	Acc    ffsva.Accuracy
	// Elapsed is the longest instance's modeled first-capture to
	// last-decision time.
	Elapsed time.Duration
	// Latencies are the modeled capture-to-verdict times of every
	// decided frame, merged over instances; ResultLatencies those of the
	// frames that reached the reference model, whose results a user
	// receives. Both are sorted.
	Latencies, ResultLatencies []time.Duration
	// IngestLag is the worst modeled lateness against the online
	// capture schedule over all streams.
	IngestLag time.Duration
	// StageProcessed sums Report.StageProcessed over instances.
	StageProcessed [5]int64
	// CPUUtil, GPU0Util and GPU1Util average the modeled device
	// utilizations over instances.
	CPUUtil, GPU0Util, GPU1Util float64
	// Admits, Reforwards and Rejects count control-plane events (zero
	// for single-instance runs).
	Admits, Reforwards, Rejects int
	// Err is the first ledger violation, nil when the run conserved
	// every frame.
	Err error
}

func newOutcome(w workload, reps []*ffsva.Report, cl *ffsva.ClusterReport) *outcome {
	o := &outcome{Offered: w.offered()}
	var ledger [8]int64
	byStream := map[int][]ffsva.Record{}
	for _, r := range reps {
		if r.Elapsed > o.Elapsed {
			o.Elapsed = r.Elapsed
		}
		for i, n := range r.StageProcessed {
			o.StageProcessed[i] += n
		}
		o.CPUUtil += r.CPUUtil / float64(len(reps))
		o.GPU0Util += r.GPU0Util / float64(len(reps))
		o.GPU1Util += r.GPU1Util / float64(len(reps))
		if r.Cancelled || r.Crashed {
			o.fail(fmt.Errorf("instance cancelled=%v crashed=%v", r.Cancelled, r.Crashed))
		}
		for _, sr := range r.Streams {
			o.IngestLag = max(o.IngestLag, sr.IngestLag)
			for d, n := range sr.Counts {
				ledger[d] += n
			}
			for _, rec := range sr.Records {
				if rec.Done {
					byStream[sr.ID] = append(byStream[sr.ID], rec)
				}
			}
		}
	}
	if cl != nil {
		ledger = cl.Drops
		o.Admits, o.Reforwards, o.Rejects = cl.Admissions(), cl.Reforwards(), cl.Rejects()
		if cl.Cancelled {
			o.fail(fmt.Errorf("cluster run cancelled"))
		}
	}
	for d, n := range ledger {
		o.Decided += n
		if d <= int(ffsva.Detected) {
			o.Cascade += n
		}
	}
	if o.Decided != o.Offered {
		o.fail(fmt.Errorf("ledger: %d frames decided, %d offered", o.Decided, o.Offered))
	}

	ids := make([]int, 0, len(byStream))
	for id := range byStream {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	if len(ids) != w.base.Streams {
		o.fail(fmt.Errorf("ledger: %d of %d streams decided frames", len(ids), w.base.Streams))
	}
	h := fnv.New64a()
	var buf [8 * 4]byte
	for _, id := range ids {
		recs := byStream[id]
		sort.Slice(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
		if len(recs) != w.base.FramesPerStream {
			o.fail(fmt.Errorf("ledger: stream %d decided %d of %d frames", id, len(recs), w.base.FramesPerStream))
		}
		for _, rec := range recs {
			putInt(buf[0:], int64(id))
			putInt(buf[8:], rec.Seq)
			putInt(buf[16:], int64(rec.Disposition))
			putInt(buf[24:], int64(rec.RefCount))
			h.Write(buf[:])
			o.Latencies = append(o.Latencies, rec.Latency())
			if rec.Disposition == ffsva.Detected {
				o.ResultLatencies = append(o.ResultLatencies, rec.Latency())
			}
		}
		acc := ffsva.Analyze(recs, w.base.NumberOfObjects)
		o.Acc.Merge(acc)
	}
	o.Digest = h.Sum64()
	sort.Slice(o.Latencies, func(i, j int) bool { return o.Latencies[i] < o.Latencies[j] })
	sort.Slice(o.ResultLatencies, func(i, j int) bool { return o.ResultLatencies[i] < o.ResultLatencies[j] })
	return o
}

func (o *outcome) fail(err error) {
	if o.Err == nil {
		o.Err = err
	}
}

func putInt(b []byte, v int64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

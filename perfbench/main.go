// Command perfbench is the repository's benchmark. It drives one named
// workload through the public facade (ffsva.Run, ffsva.RunCluster) for
// a fixed time, checks that every frame was accounted for, and prints
// host and modeled cost as one JSON line:
//
//	bash perfbench/run.sh --workload offline-sparse --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 adds a traced run
// that times each layer and prints the per-layer metrics. README.md
// lists every metric and workload.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"ffsva"
	"ffsva/internal/par"
	"ffsva/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// setupChildFlag makes the binary time one uncached camera training
// and print the seconds; the parent starts it to sample set-up cost in
// fresh processes.
const setupChildFlag = "setup-child"

// setupSamples is how many fresh-process trainings set-up time is the
// median of: the parent's own first training plus children.
const setupSamples = 3

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "measurement time in seconds")
	traceOn := fs.Int("trace", 0, "1 for the traced per-layer run")
	child := fs.String(setupChildFlag, "", "internal: time one training of this workload's camera")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *child != "" {
		w, err := lookup(*child)
		if err != nil {
			return err
		}
		d, err := timeTraining(w)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%.9f\n", d.Seconds())
		return nil
	}
	w, err := lookup(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		return errors.New("need --seconds ≥ 1 and --trace 0 or 1")
	}
	budget := time.Duration(*seconds) * time.Second
	fmt.Fprintf(stdout, "workload %s seed %d seconds %d trace %d GOMAXPROCS %d par width %d\n",
		w.Name, *seed, *seconds, *traceOn, runtime.GOMAXPROCS(0), par.Workers())

	var res *result
	if *traceOn == 1 {
		res, err = runTraced(w, *seed, budget, stdout)
	} else {
		res, err = runUntraced(w, *seed, budget, stdout)
	}
	if err != nil {
		return err
	}
	return res.print(stdout)
}

// timeTraining times the first, uncached training of the workload's
// camera in this process.
func timeTraining(w workload) (time.Duration, error) {
	t0 := wallNow()
	_, err := w.camera()
	return wallNow().Sub(t0), err
}

// setupTimes samples set-up time in fresh processes: children of this
// binary first, then this process's own first training, which the run
// needs anyway. It returns the raw seconds and the seconds scaled to
// the reference host by a calibration around each sample.
func setupTimes(w workload) (raw, scaled []float64, err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, fmt.Errorf("locate the benchmark binary: %w", err)
	}
	for i := 0; i < setupSamples; i++ {
		var v float64
		calib, err := calibrated(func() error {
			if i == setupSamples-1 {
				d, err := timeTraining(w)
				v = d.Seconds()
				return err
			}
			b, err := exec.Command(exe, "--"+setupChildFlag, w.Name).Output()
			if err != nil {
				return fmt.Errorf("set-up child: %w", err)
			}
			if v, err = strconv.ParseFloat(strings.TrimSpace(string(b)), 64); err != nil {
				return fmt.Errorf("set-up child output %q: %w", b, err)
			}
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		raw = append(raw, v)
		scaled = append(scaled, v*calib.wallScale())
	}
	return raw, scaled, nil
}

// call is one timed facade call.
type call struct {
	input int
	host  hostSample
	out   *outcome
	// calib is the calibration kernel's speed around the call.
	calib speed
}

// timedCalls runs inputs 0, 1, … (cycling) through the facade until
// every input ran once and the budget has no room for another call.
func timedCalls(w workload, seed int64, budget time.Duration, log io.Writer) ([]call, error) {
	start := wallNow()
	var calls []call
	for k := 0; ; k++ {
		if k >= w.Inputs {
			mean := wallNow().Sub(start) / time.Duration(len(calls))
			if wallNow().Sub(start)+mean > budget {
				return calls, nil
			}
		}
		c := call{input: k % w.Inputs}
		var err error
		c.calib, err = calibrated(func() error {
			var err error
			c.host, err = measure(func() error {
				var err error
				c.out, err = w.call(seed, c.input)
				return err
			})
			return err
		})
		if err != nil {
			return nil, err
		}
		h := c.host
		fmt.Fprintf(log, "call %d input %d: %.3f s, %.1f frames/s, %.1f us CPU/frame, %.1f MB peak live heap, calibration %.2f ms\n",
			k, c.input, h.Wall.Seconds(), float64(c.out.Decided)/h.Wall.Seconds(),
			float64(h.CPU.Microseconds())/float64(c.out.Decided), float64(h.PeakLive)/(1<<20), ms(c.calib.wall))
		calls = append(calls, c)
	}
}

// result is one run's verdict and figures.
type result struct {
	checks    []string // failed correctness checks
	attempted int64    // frames offered
	failed    int64    // frames without a cascade verdict, or in a failed call
	values    map[string]float64
	notes     map[string]string // sample counts, per metric
	digest    uint64
	catalogue []metric
}

func newResult(cat []metric) *result {
	return &result{values: map[string]float64{}, notes: map[string]string{}, catalogue: cat}
}

func (r *result) set(name string, v float64, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.values[name] = v
	r.notes[name] = note
}

func (r *result) fail(format string, a ...any) {
	r.checks = append(r.checks, fmt.Sprintf(format, a...))
}

// account adds one call's frames to the attempted/failed tally and
// checks its ledger and its reproducibility against the first call of
// the same input.
func (r *result) account(c call, first map[int]uint64) {
	o := c.out
	r.attempted += o.Offered
	if o.Err != nil {
		r.failed += o.Offered
		r.fail("input %d: %v", c.input, o.Err)
		return
	}
	r.failed += o.Offered - o.Cascade
	d, ok := first[c.input]
	switch {
	case !ok:
		first[c.input] = o.Digest
	case d != o.Digest:
		r.fail("input %d: digest %016x, first run of the input gave %016x", c.input, o.Digest, d)
	}
}

// runUntraced measures the end-to-end metrics.
func runUntraced(w workload, seed int64, budget time.Duration, log io.Writer) (*result, error) {
	setupRaw, setup, err := setupTimes(w)
	if err != nil {
		return nil, err
	}
	calls, err := timedCalls(w, seed, budget, log)
	if err != nil {
		return nil, err
	}
	r := newResult(endToEnd)
	first := map[int]uint64{}
	for _, c := range calls {
		r.account(c, first)
	}
	r.digest = runDigest(w, first)

	n := len(calls)
	per := func(f func(c call) float64) float64 {
		v := make([]float64, n)
		for i, c := range calls {
			v[i] = f(c)
		}
		return median(v)
	}
	fps := func(c call) float64 { return float64(c.out.Decided) / c.host.Wall.Seconds() }
	cpuUS := func(c call) float64 { return float64(c.host.CPU.Microseconds()) / float64(c.out.Decided) }
	calibNote := fmt.Sprintf("median of %d calls, scaled by calibration (median %.2f ms wall, %.2f ms CPU)",
		n, per(func(c call) float64 { return ms(c.calib.wall) }), per(func(c call) float64 { return ms(c.calib.cpu) }))
	r.set("setup_s", median(setup), fmt.Sprintf("median of %d fresh-process trainings, scaled; raw %.4g s", len(setup), median(setupRaw)))
	r.set("host_fps", per(func(c call) float64 { return fps(c) / c.calib.wallScale() }),
		fmt.Sprintf("%s; raw %.5g", calibNote, per(fps)))
	r.set("cpu_us_per_frame", per(func(c call) float64 { return cpuUS(c) * c.calib.cpuScale() }),
		fmt.Sprintf("%s; raw %.5g", calibNote, per(cpuUS)))

	// Memory and the modeled figures depend on the input but hardly on
	// the host's speed, so they take the first call of every input;
	// repeats are byte-identical (checked above).
	inputs := calls[:w.Inputs]
	perInput := float64(len(inputs))
	var frames, allocs, elapsed float64
	var heap, goroutines, p99 float64
	var acc ffsva.Accuracy
	for _, c := range inputs {
		o := c.out
		frames += float64(o.Decided)
		allocs += float64(c.host.AllocBytes)
		heap += float64(c.host.PeakLive) / (1 << 20) / perInput
		goroutines += float64(c.host.PeakGoroutines) / perInput
		elapsed += o.Elapsed.Seconds()
		p99 += ms(quantile(o.Latencies, 0.99)) / perInput
		acc.Merge(o.Acc)
	}
	modelNote := fmt.Sprintf("%d inputs, %.0f frames", len(inputs), frames)
	r.set("alloc_kb_per_frame", allocs/1024/frames, modelNote)
	r.set("peak_heap_mb", heap, "mean over "+modelNote)
	r.set("peak_goroutines", goroutines, "mean over "+modelNote)
	r.set("model_fps", frames/elapsed, modelNote)
	r.set("model_p99_ms", p99, "mean over "+modelNote)
	r.set("accuracy", 1-acc.ErrorRate(), fmt.Sprintf("%d frames, %d false negatives", acc.Frames, acc.FalseNegatives))
	r.set("scene_recall", 1-acc.SceneLossRate(), fmt.Sprintf("%d of %d scenes", acc.ScenesDetected, acc.Scenes))
	r.set("ok_frac", 1-float64(r.failed)/float64(r.attempted), fmt.Sprintf("%d frames offered", r.attempted))
	return r, nil
}

// runTraced measures the per-layer metrics: untraced calls for the
// host baseline, one traced call of input 0, one single-threaded call
// of input 0, and a replay of input 0's frames through SDD and SNM.
func runTraced(w workload, seed int64, budget time.Duration, log io.Writer) (*result, error) {
	train, err := timeTraining(w)
	if err != nil {
		return nil, err
	}
	calls, err := timedCalls(w, seed, budget, log)
	if err != nil {
		return nil, err
	}
	tc, err := tracedCall(w, seed, 0)
	if err != nil {
		return nil, err
	}
	serial, err := singleThreaded(w, seed)
	if err != nil {
		return nil, err
	}

	r := newResult(perLayer)
	first := map[int]uint64{}
	for _, c := range calls {
		r.account(c, first)
	}
	r.account(call{input: 0, host: tc.host, out: tc.out}, first)
	r.account(serial, first)
	r.digest = runDigest(w, first)

	o, tm := tc.out, tc.timers
	wall := tc.host.Wall
	r.set("lab.train_s", train.Seconds(), "one uncached training")
	r.set("lab.mint_us_per_stream", tm.mint.meanUS(), fmt.Sprintf("%d streams minted", tm.mint.calls.Load()))
	r.set("vidgen.next_us", tm.next.meanUS(), fmt.Sprintf("%d calls", tm.next.calls.Load()))
	r.set("vidgen.host_frac", ratio(float64(tm.next.total()), float64(wall)), "traced wall time")

	sp := o.StageProcessed
	r.set("sdd.pass_frac", ratio(float64(sp[2]), float64(sp[1])), "in-pipeline")
	r.set("snm.pass_frac", ratio(float64(sp[3]), float64(sp[2])), "in-pipeline")
	r.set("tyolo.pass_frac", ratio(float64(sp[4]), float64(sp[3])), "in-pipeline")
	r.set("tyolo.detect_us", tm.tyolo.meanUS(), fmt.Sprintf("%d calls", tm.tyolo.calls.Load()))
	r.set("tyolo.calls", float64(tm.tyolo.calls.Load()), "in-pipeline")
	r.set("ref.detect_us", tm.ref.meanUS(), fmt.Sprintf("%d calls", tm.ref.calls.Load()))
	r.set("ref.frames", float64(sp[4]), "in-pipeline")
	r.set("device.cpu_util", o.CPUUtil, "modeled, mean over instances")
	r.set("device.gpu0_util", o.GPU0Util, "modeled, mean over instances")
	r.set("device.gpu1_util", o.GPU1Util, "modeled, mean over instances")
	r.set("ingest.lag_ms", ms(o.IngestLag), "modeled, worst stream")
	var p50 float64
	var results int
	for _, c := range calls[:w.Inputs] {
		p50 += ms(quantile(c.out.ResultLatencies, 0.50)) / float64(w.Inputs)
		results += len(c.out.ResultLatencies)
	}
	r.set("ref.result_p50_ms", p50, fmt.Sprintf("modeled, mean over %d untraced inputs, %d frames", w.Inputs, results))

	var batches, batched float64
	var blocked int64
	for _, sn := range tc.snaps {
		batches += float64(sn.SNMBatchCount)
		batched += sn.SNMBatchMean * float64(sn.SNMBatchCount)
		blocked += sn.RefQ.BlockedPuts
		for _, ss := range sn.Streams {
			blocked += ss.SDDQ.BlockedPuts + ss.SNMQ.BlockedPuts + ss.TYQ.BlockedPuts
		}
	}
	batchMean := ratio(batched, batches)
	r.set("snm.batch_mean", batchMean, fmt.Sprintf("%.0f batches", batches))
	r.set("queue.blocked_puts", float64(blocked), "all queues, last snapshot")

	rp, err := replay(w, seed, 0, int(math.Round(batchMean)))
	if err != nil {
		return nil, err
	}
	replayNote := fmt.Sprintf("replay of %d frames", rp.sddCalls)
	sddUS := ratio(float64(rp.sddNS)/1e3, float64(rp.sddCalls))
	snmUS := ratio(float64(rp.snmNS)/1e3, float64(rp.snmFrames))
	r.set("sdd.process_us", sddUS, replayNote)
	r.set("sdd.allocs_per_call", ratio(float64(rp.sddAllocs), float64(rp.sddCalls)), replayNote)
	r.set("snm.batch_us", ratio(float64(rp.snmNS)/1e3, float64(rp.snmCalls)), fmt.Sprintf("replay of %d batches", rp.snmCalls))
	r.set("snm.us_per_frame", snmUS, fmt.Sprintf("replay of %d frames", rp.snmFrames))
	r.set("snm.allocs_per_call", ratio(float64(rp.snmAllocs), float64(rp.snmCalls)), fmt.Sprintf("replay of %d batches", rp.snmCalls))

	timed := tm.next.total() + tm.tyolo.total() + tm.ref.total() + tm.mint.total() +
		time.Duration(sddUS*1e3*float64(sp[1])) + time.Duration(snmUS*1e3*float64(sp[2]))
	r.set("engine.self_frac", ratio(float64(wall-timed), float64(wall)), "traced wall minus timed layer calls")

	stages := stageMeans(tc.spans)
	for _, s := range []struct{ name, kinds string }{
		{"stage.decode.service_ms", "decode"},
		{"stage.sdd.wait_ms", "sdd-wait"},
		{"stage.sdd.service_ms", "sdd"},
		{"stage.snm.wait_ms", "snm-wait snm-assemble"},
		{"stage.snm.service_ms", "snm-infer"},
		{"stage.t-yolo.wait_ms", "t-yolo-wait"},
		{"stage.t-yolo.service_ms", "t-yolo"},
		{"stage.ref.wait_ms", "ref-wait"},
		{"stage.ref.service_ms", "ref-pack ref ref-unpack"},
	} {
		var v float64
		for _, k := range strings.Fields(s.kinds) {
			v += stages[k]
		}
		r.set(s.name, v, "modeled span mean per frame: "+s.kinds)
	}

	r.set("cluster.admits", float64(o.Admits), "control-plane events")
	r.set("cluster.reforwards", float64(o.Reforwards), "control-plane events; a re-forward drops the T-YOLO decorator")
	r.set("cluster.rejects", float64(o.Rejects), "control-plane events")
	streams := float64(w.base.Streams)
	heap := make([]float64, len(calls))
	gs := make([]float64, len(calls))
	var gcCPU, totalCPU float64
	var untracedFPS []float64
	for i, c := range calls {
		heap[i] = float64(c.host.PeakLive) / 1024 / streams
		gs[i] = float64(c.host.PeakGoroutines) / streams
		gcCPU += c.host.GCCPU
		totalCPU += c.host.TotalCPU
		if c.input == 0 {
			untracedFPS = append(untracedFPS, float64(c.out.Decided)/c.host.Wall.Seconds())
		}
	}
	hostNote := fmt.Sprintf("untraced, median of %d calls", len(calls))
	r.set("cluster.heap_kb_per_stream", median(heap), hostNote)
	r.set("cluster.goroutines_per_stream", median(gs), hostNote)
	r.set("gc.cpu_frac", ratio(gcCPU, totalCPU), fmt.Sprintf("untraced, %d calls", len(calls)))
	calibMS := make([]float64, len(calls))
	for i, c := range calls {
		calibMS[i] = ms(c.calib.wall)
	}
	r.set("host.calib_ms", median(calibMS), fmt.Sprintf("calibration kernel wall time, median of %d calls; per-layer timings are raw", len(calls)))
	r.set("frame.pool_reuse_frac", ratio(float64(tc.poolPuts), float64(tc.poolGets)), fmt.Sprintf("%d pooled frames", tc.poolGets))

	tracedFPS := float64(o.Decided) / wall.Seconds()
	base := median(untracedFPS)
	r.set("trace.overhead_frac", 1-ratio(tracedFPS, base), fmt.Sprintf("traced call vs median of %d untraced calls of input 0", len(untracedFPS)))
	r.set("par.speedup", ratio(base, float64(serial.out.Decided)/serial.host.Wall.Seconds()), "input 0 at full width vs GOMAXPROCS=1, par width 1")
	return r, nil
}

// singleThreaded runs input 0 through the facade at GOMAXPROCS=1 with
// the par pool at width 1, then restores both.
func singleThreaded(w workload, seed int64) (call, error) {
	//lint:allow detnow the single-threaded baseline pins GOMAXPROCS for one call and restores it
	procs := runtime.GOMAXPROCS(1)
	width := par.SetWorkers(1)
	defer func() {
		par.SetWorkers(width)
		//lint:allow detnow restores the GOMAXPROCS value saved above
		runtime.GOMAXPROCS(procs)
	}()
	c := call{input: 0}
	h, err := measure(func() error {
		var err error
		c.out, err = w.call(seed, 0)
		return err
	})
	c.host = h
	return c, err
}

// stageMeans maps each span kind to its mean modeled time per frame
// that visited it, in milliseconds.
func stageMeans(spans []trace.StageStat) map[string]float64 {
	m := map[string]float64{}
	for _, s := range spans {
		m[s.Kind.String()] += ms(s.Mean)
	}
	return m
}

// runDigest folds the digests of every input, in input order, FNV-1a
// style.
func runDigest(w workload, first map[int]uint64) uint64 {
	var d uint64 = 14695981039346656037
	for k := 0; k < w.Inputs; k++ {
		d = (d ^ first[k]) * 1099511628211
	}
	return d
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// jsonValue is one metric in the result line.
type jsonValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the human-readable table, then the result line.
func (r *result) print(out io.Writer) error {
	metricsOut := map[string]jsonValue{}
	for _, m := range r.catalogue {
		v, ok := r.values[m.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		fmt.Fprintf(out, "  %-30s %14.6g %-9s %-6s better  (%s)\n", m.Name, v, m.Unit, m.Better, r.notes[m.Name])
		metricsOut[m.Name] = jsonValue{Value: v, Unit: m.Unit}
	}
	fmt.Fprintf(out, "digest %016x\n", r.digest)
	for _, c := range r.checks {
		fmt.Fprintln(out, "CHECK FAILED:", c)
	}
	b, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]jsonValue `json:"metrics"`
	}{len(r.checks) == 0, r.attempted, r.failed, metricsOut})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(b))
	return err
}

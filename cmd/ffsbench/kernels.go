package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"ffsva/internal/detect"
	"ffsva/internal/experiments"
	"ffsva/internal/filters"
	"ffsva/internal/frame"
	"ffsva/internal/imgproc"
	"ffsva/internal/nn"
	"ffsva/internal/par"
	"ffsva/internal/train"
)

// sweepWidths are the pool widths the kernels job measures. Each width
// w sets both runtime.GOMAXPROCS(w) and par.SetWorkers(w), so the
// physical parallelism matches the sharding decision — the bug this
// sweep exists to catch is the two diverging.
var sweepWidths = []int{1, 2, 4, 8}

// speedupFloor is the end-to-end multi-core speedup the gate demands at
// width ≥ 4 (on hosts with at least that many cores).
const speedupFloor = 1.5

// serialRegressionFactor is how much a kernel's width-1 ns/op may grow
// over the committed baseline before the gate fails the run.
const serialRegressionFactor = 1.4

// kernelResult is one kernel's per-width measurement. Map keys are the
// decimal width ("1", "2", ...); speedups are relative to width 1.
type kernelResult struct {
	Name    string             `json:"name"`
	NsPerOp map[string]float64 `json:"ns_per_op_by_width"`
	Speedup map[string]float64 `json:"speedup_by_width"`
}

// endToEndResult is a small whole-pipeline wall-clock run per width.
// Frames are recorded per width so a sharding bug that changes how many
// frames a run processes cannot hide behind a single shared count.
type endToEndResult struct {
	FramesByWidth  map[string]int64   `json:"frames_by_width"`
	FPSByWidth     map[string]float64 `json:"fps_by_width"`
	SpeedupByWidth map[string]float64 `json:"speedup_by_width"`
}

// gateReport holds the kernels job's two gate verdicts.
type gateReport struct {
	MulticoreSpeedup string `json:"multicore_speedup"`
	SerialRegression string `json:"serial_regression"`
}

// kernelReport is the BENCH_kernels.json document.
type kernelReport struct {
	Generated string          `json:"generated"`
	NumCPU    int             `json:"num_cpu"`
	Widths    []int           `json:"widths"`
	Kernels   []kernelResult  `json:"kernels"`
	EndToEnd  *endToEndResult `json:"end_to_end,omitempty"`
	Gate      gateReport      `json:"gate"`
}

func (r *kernelReport) usable() bool {
	return len(r.Widths) > 0 && len(r.Kernels) > 0 && r.Kernels[0].NsPerOp != nil
}

func widthKey(w int) string { return strconv.Itoa(w) }

func (r *kernelReport) Tables() []*experiments.Table {
	cols := []string{"kernel"}
	for _, w := range r.Widths {
		cols = append(cols, fmt.Sprintf("w=%d ns/op", w))
	}
	maxW := r.Widths[len(r.Widths)-1]
	cols = append(cols, fmt.Sprintf("speedup@%d", maxW))
	t := &experiments.Table{
		ID:      "kernels",
		Title:   "compute-kernel throughput across the GOMAXPROCS sweep",
		Columns: cols,
		Notes: []string{
			fmt.Sprintf("each width w sets runtime.GOMAXPROCS(w) and par.SetWorkers(w), re-warming before timing; host has %d CPU(s)", r.NumCPU),
			"speedups are relative to width 1; the multi-core gate is skipped (not faked) on hosts too small to show one",
			"gate: " + r.Gate.MulticoreSpeedup + " | " + r.Gate.SerialRegression,
			"written to " + benchKernelsPath,
		},
	}
	for _, k := range r.Kernels {
		row := []string{k.Name}
		for _, w := range r.Widths {
			row = append(row, fmt.Sprintf("%.0f", k.NsPerOp[widthKey(w)]))
		}
		row = append(row, fmt.Sprintf("%.2fx", k.Speedup[widthKey(maxW)]))
		t.Rows = append(t.Rows, row)
	}
	if r.EndToEnd != nil {
		row := []string{"end-to-end (wall clock)"}
		for _, w := range r.Widths {
			row = append(row, fmt.Sprintf("%.1f fps", r.EndToEnd.FPSByWidth[widthKey(w)]))
		}
		row = append(row, fmt.Sprintf("%.2fx", r.EndToEnd.SpeedupByWidth[widthKey(maxW)]))
		t.Rows = append(t.Rows, row)
	}
	return []*experiments.Table{t}
}

const benchKernelsPath = "BENCH_kernels.json"

// measure runs body repeatedly until it has consumed at least minDur of
// wall time and returns the mean ns per call. Two untimed warm-up calls
// come first: the first pays any pool startup and cold pooled scratch
// that follows a width change, the second proves steady state. Callers
// must re-invoke measure after every SetWorkers/GOMAXPROCS change so
// that cost never lands inside a timed region.
func measure(minDur time.Duration, body func()) float64 {
	body()
	body()
	var (
		n     int
		total time.Duration
	)
	for total < minDur {
		batch := 1 + n/2
		start := time.Now()
		for i := 0; i < batch; i++ {
			body()
		}
		total += time.Since(start)
		n += batch
	}
	return float64(total.Nanoseconds()) / float64(n)
}

// kernelSpec names one hot loop and how to run it once.
type kernelSpec struct {
	name string
	body func()
}

// evalGates fills in r.Gate from the sweep results and the committed
// baseline prev; skip is loadBaseline's verdict for prev.
func (r *kernelReport) evalGates(prev *kernelReport, skip string) {
	// Multi-core speedup gate: only meaningful where the hardware can
	// physically run kernels in parallel.
	switch {
	case r.NumCPU == 1:
		r.Gate.MulticoreSpeedup = "skipped: single-core host (NumCPU=1); parallel and serial share one core, a speedup figure here would be vacuous"
	case r.NumCPU < 4:
		r.Gate.MulticoreSpeedup = fmt.Sprintf("skipped: host has %d CPUs, gate needs >=4 for the width-4 floor", r.NumCPU)
	default:
		best, bestW := 0.0, 0
		for _, w := range r.Widths {
			if w < 4 || r.EndToEnd == nil {
				continue
			}
			if s := r.EndToEnd.SpeedupByWidth[widthKey(w)]; s > best {
				best, bestW = s, w
			}
		}
		if best >= speedupFloor {
			r.Gate.MulticoreSpeedup = fmt.Sprintf("ok: %.2fx end-to-end at width %d (floor %.1fx)", best, bestW, speedupFloor)
		} else {
			r.Gate.MulticoreSpeedup = fmt.Sprintf("FAIL: best end-to-end speedup %.2fx at width %d is under the %.1fx floor", best, bestW, speedupFloor)
		}
	}

	// Serial-regression gate: compare width-1 ns/op against the
	// baseline, kernel by kernel.
	switch {
	case skip != "":
		r.Gate.SerialRegression = skip
	case prev.NumCPU != r.NumCPU:
		r.Gate.SerialRegression = fmt.Sprintf("skipped: baseline recorded on a different host class (NumCPU %d vs %d)", prev.NumCPU, r.NumCPU)
	default:
		prevSerial := map[string]float64{}
		for _, k := range prev.Kernels {
			prevSerial[k.Name] = k.NsPerOp[widthKey(1)]
		}
		var regressions []string
		compared := 0
		for _, k := range r.Kernels {
			base, ok := prevSerial[k.Name]
			if !ok || base <= 0 {
				continue
			}
			compared++
			if now := k.NsPerOp[widthKey(1)]; now > base*serialRegressionFactor {
				regressions = append(regressions, fmt.Sprintf("%s %.0f -> %.0f ns/op (%.2fx)", k.Name, base, now, now/base))
			}
		}
		switch {
		case compared == 0:
			r.Gate.SerialRegression = "skipped: baseline shares no kernel names with this run"
		case len(regressions) > 0:
			sort.Strings(regressions)
			r.Gate.SerialRegression = fmt.Sprintf("FAIL: serial ns/op regressed beyond %.1fx: %s", serialRegressionFactor, strings.Join(regressions, "; "))
		default:
			r.Gate.SerialRegression = fmt.Sprintf("ok: %d kernels within %.1fx of baseline serial ns/op", compared, serialRegressionFactor)
		}
	}
}

// runKernels benchmarks the hot compute kernels the filter cascade is
// built from across a {1,2,4,8} GOMAXPROCS×pool-width sweep, plus a
// small wall-clock end-to-end run per width, writes the results to
// BENCH_kernels.json, and (with gate set) fails on a missing multi-core
// speedup or a serial ns/op regression.
func runKernels(scale experiments.Scale, gate bool) (tabler, error) {
	rng := rand.New(rand.NewSource(7))
	minDur := 200 * time.Millisecond
	if scale.Name == "full" {
		minDur = time.Second
	}

	var prev kernelReport
	skip := loadBaseline(benchKernelsPath, &prev)
	rep := &kernelReport{
		Generated: time.Now().Format(time.RFC3339),
		NumCPU:    runtime.NumCPU(),
		Widths:    sweepWidths,
	}

	// SNM forward, dynamic batch of 8 (the pipeline's pooled
	// multi-sample inference path, now on the blocked matmul).
	snm := train.NewSNMNet(rng)
	batch := nn.NewTensor(8, 1, filters.SNMSize, filters.SNMSize)
	for i := range batch.Data {
		batch.Data[i] = rng.Float32()*2 - 1
	}

	// Fused SDD kernel: downsample a capture-resolution frame to
	// 100×100 and score it against the running reference in one pass.
	src := imgproc.NewGray(600, 400)
	for i := range src.Pix {
		src.Pix[i] = uint8(rng.Intn(256))
	}
	ref := imgproc.NewGray(filters.SDDSize, filters.SDDSize)
	for i := range ref.Pix {
		ref.Pix[i] = uint8(rng.Intn(256))
	}
	small := imgproc.NewGray(filters.SDDSize, filters.SDDSize)

	// Full-resolution MSE: the chunked-reduction kernel on a plane big
	// enough to shard (the 100×100 SDD plane fits in one chunk).
	src2 := imgproc.NewGray(600, 400)
	for i := range src2.Pix {
		src2.Pix[i] = uint8(rng.Intn(256))
	}

	// Shared T-YOLO substitute on a capture-resolution frame.
	tg := detect.NewTinyGrid(detect.DefaultTinyGridConfig())
	tf := frame.New(600, 400)
	for i := range tf.Pix {
		tf.Pix[i] = uint8(rng.Intn(256))
	}

	specs := []kernelSpec{
		{"snm_forward_batch8", func() { snm.Infer(batch).Release() }},
		{"sdd_fused_resize_mse_100", func() { imgproc.ResizeMSE(src, small, ref) }},
		{"mse_600x400", func() { imgproc.MSE(src, src2) }},
		{"tinygrid_detect_600x400", func() { tg.Detect(tf) }},
	}
	for _, s := range specs {
		rep.Kernels = append(rep.Kernels, kernelResult{
			Name:    s.name,
			NsPerOp: map[string]float64{},
			Speedup: map[string]float64{},
		})
	}

	// Wall-clock end-to-end: the standard workload, timed per width.
	cfg := standardConfig(scale)
	rep.EndToEnd = &endToEndResult{
		FramesByWidth:  map[string]int64{},
		FPSByWidth:     map[string]float64{},
		SpeedupByWidth: map[string]float64{},
	}

	// The sweep proper. GOMAXPROCS and the pool width move together so
	// every width is a self-consistent configuration; both are restored
	// afterwards.
	origProcs := runtime.GOMAXPROCS(0)
	origWorkers := par.Workers()
	defer func() {
		runtime.GOMAXPROCS(origProcs)
		par.SetWorkers(origWorkers)
	}()
	for _, w := range sweepWidths {
		runtime.GOMAXPROCS(w)
		par.SetWorkers(w)
		key := widthKey(w)
		for i, s := range specs {
			rep.Kernels[i].NsPerOp[key] = measure(minDur, s.body)
		}
		if _, _, err := timedRun(cfg); err != nil { // re-warm model caches at this width
			return nil, err
		}
		res, fps, err := timedRun(cfg)
		if err != nil {
			return nil, err
		}
		rep.EndToEnd.FramesByWidth[key] = res.Pipeline.TotalFrames
		rep.EndToEnd.FPSByWidth[key] = fps
	}

	base := widthKey(sweepWidths[0])
	for i := range rep.Kernels {
		serial := rep.Kernels[i].NsPerOp[base]
		for _, w := range sweepWidths {
			if ns := rep.Kernels[i].NsPerOp[widthKey(w)]; ns > 0 {
				rep.Kernels[i].Speedup[widthKey(w)] = serial / ns
			}
		}
	}
	if serialFPS := rep.EndToEnd.FPSByWidth[base]; serialFPS > 0 {
		for _, w := range sweepWidths {
			rep.EndToEnd.SpeedupByWidth[widthKey(w)] = rep.EndToEnd.FPSByWidth[widthKey(w)] / serialFPS
		}
	}

	rep.evalGates(&prev, skip)
	return rep, record(benchKernelsPath, rep, gate, rep.Gate.MulticoreSpeedup, rep.Gate.SerialRegression)
}

// Command ffsbench regenerates every table and figure of the FFS-VA
// paper's evaluation section on the synthetic substrate, plus the
// ablation studies, and prints them as text tables.
//
// Usage:
//
//	ffsbench [-scale quick|full] [-only table1,fig3,...] [-o out.txt]
//	         [-metrics 500ms] [-metrics-json] [-gate]
//
// The quick scale (default) preserves every experiment's shape in a few
// minutes; full mirrors the paper's run sizes. The "metrics" job runs an
// instrumented online configuration and tabulates the pipeline's snapshot
// timeline; -metrics sets the sampling interval and -metrics-json also
// dumps every raw snapshot as a JSON line.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"ffsva/internal/experiments"
	"ffsva/internal/pipeline"
)

// tabler is any experiment result that renders to tables.
type tabler interface{ Tables() []*experiments.Table }

func main() {
	scaleFlag := flag.String("scale", "quick", "experiment scale: quick or full")
	only := flag.String("only", "", "comma-separated experiment ids to run (default all): headline,table1,fig3,fig4,fig5,fig6a,fig6b,fig7,fig8,table2,fig9,fig10,ablations,extensions,metrics,kernels,trace,cluster,consolidate,timeline")
	outPath := flag.String("o", "", "write output to file instead of stdout")
	metricsEvery := flag.Duration("metrics", 500*time.Millisecond, "snapshot interval for the metrics job")
	metricsJSON := flag.Bool("metrics-json", false, "also dump each metrics-job snapshot as a JSON line")
	gateFlag := flag.Bool("gate", false, "exit 1 when a BENCH job's gate verdict is FAIL — kernels: missing multi-core speedup or serial ns/op regression; trace: tracing over its overhead budget; cluster: max-sustained-streams regression; consolidate: consolidated fleet not above the full-frame baseline; timeline: flight recorder over its overhead budget")
	flag.Parse()

	var scale experiments.Scale
	switch *scaleFlag {
	case "quick":
		scale = experiments.QuickScale()
	case "full":
		scale = experiments.FullScale()
	default:
		fmt.Fprintf(os.Stderr, "ffsbench: unknown scale %q\n", *scaleFlag)
		os.Exit(2)
	}

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ffsbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		out = f
	}

	wanted := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			wanted[strings.TrimSpace(strings.ToLower(id))] = true
		}
	}
	want := func(id string) bool { return len(wanted) == 0 || wanted[id] }

	type job struct {
		id  string
		run func() (tabler, error)
	}
	jobs := []job{
		{"headline", func() (tabler, error) { return experiments.RunHeadline(scale) }},
		{"table1", func() (tabler, error) { return experiments.Table1(scale) }},
		{"fig3", func() (tabler, error) { return experiments.Fig3(scale) }},
		{"fig4", func() (tabler, error) { return experiments.Fig4(scale) }},
		{"fig5", func() (tabler, error) { return experiments.Fig5(scale) }},
		{"fig6a", func() (tabler, error) { return experiments.Fig6a(scale) }},
		{"fig6b", func() (tabler, error) { return experiments.Fig6b(scale) }},
		{"fig7", func() (tabler, error) { return experiments.Fig7(scale) }},
		{"fig8", func() (tabler, error) { return experiments.Fig8(scale) }},
		{"table2", func() (tabler, error) { return experiments.Table2(scale) }},
		{"fig9", func() (tabler, error) { return experiments.Fig9(scale) }},
		{"fig10", func() (tabler, error) { return experiments.Fig10(scale) }},
		{"ablations", func() (tabler, error) { return runAblations(scale) }},
		{"extensions", func() (tabler, error) { return runExtensions(scale) }},
		{"metrics", func() (tabler, error) { return runMetrics(scale, *metricsEvery, *metricsJSON, out) }},
		{"kernels", func() (tabler, error) { return runKernels(scale, *gateFlag) }},
		{"trace", func() (tabler, error) { return runTraceBench(scale, *gateFlag) }},
		{"cluster", func() (tabler, error) { return runClusterBench(scale, *gateFlag) }},
		{"consolidate", func() (tabler, error) { return runConsolidateBench(scale, *gateFlag) }},
		{"timeline", func() (tabler, error) { return runTimelineBench(scale, *gateFlag) }},
	}

	fmt.Fprintf(out, "FFS-VA evaluation reproduction (scale=%s), started %s\n\n", scale.Name, time.Now().Format(time.RFC3339))
	failed := false
	for _, j := range jobs {
		if !want(j.id) {
			continue
		}
		start := time.Now()
		res, err := j.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "ffsbench: %s: %v\n", j.id, err)
			failed = true
			continue
		}
		for _, t := range res.Tables() {
			fmt.Fprintln(out, t)
		}
		fmt.Fprintf(out, "(%s took %v)\n\n", j.id, time.Since(start).Round(time.Millisecond))
	}
	if failed {
		os.Exit(1)
	}
}

// runMetrics exercises the observability layer: an instrumented online
// run sampled by the periodic monitor, tabulated as a snapshot timeline.
// With asJSON each raw pipeline.Snapshot is also written as a JSON line.
func runMetrics(scale experiments.Scale, every time.Duration, asJSON bool, out io.Writer) (tabler, error) {
	res, err := experiments.ObservabilityTrace(scale, every)
	if err != nil {
		return nil, err
	}
	if asJSON {
		for _, sn := range res.Samples {
			fmt.Fprintln(out, sn.JSON())
		}
	}
	if len(res.Samples) > 0 {
		var peak pipeline.Snapshot
		for _, sn := range res.Samples {
			if sn.TYoloRate > peak.TYoloRate {
				peak = sn
			}
		}
		fmt.Fprintf(out, "metrics: peak shared T-YOLO rate %.1f fps at t=%v (spare threshold 140 fps)\n\n",
			peak.TYoloRate, peak.At.Round(time.Millisecond))
	}
	return res, nil
}

// ablationSet bundles the three ablations as one job.
type ablationSet struct{ results []*experiments.AblationResult }

func (a *ablationSet) Tables() []*experiments.Table {
	var out []*experiments.Table
	for _, r := range a.results {
		out = append(out, r.Tables()...)
	}
	return out
}

func runAblations(scale experiments.Scale) (tabler, error) {
	return runSet(scale,
		experiments.AblationCascade,
		experiments.AblationPerStreamTYolo,
		experiments.AblationFeedback,
	)
}

// runExtensions runs the §5.5 remedy studies.
func runExtensions(scale experiments.Scale) (tabler, error) {
	return runSet(scale,
		experiments.ExtensionCompressed,
		experiments.ExtensionSpill,
		experiments.ExtensionAutotune,
		experiments.ExtensionMultiGPU,
	)
}

func runSet(scale experiments.Scale, fns ...func(experiments.Scale) (*experiments.AblationResult, error)) (tabler, error) {
	set := &ablationSet{}
	for _, f := range fns {
		r, err := f(scale)
		if err != nil {
			return nil, err
		}
		set.results = append(set.results, r)
	}
	return set, nil
}

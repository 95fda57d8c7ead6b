package main

// metric is one named figure the benchmark reports. The catalogue below
// is the single source for the names, units and directions printed in
// the result line and listed in BENCHMARK.json; README.md gives each
// one's layer and what it should move. The tests hold all three in
// step.
type metric struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression; zero
	// for per-layer metrics, which carry no bound.
	Bound float64
}

// endToEnd are the figures a user of the system sees, printed by an
// untraced run (--trace 0). Every one is non-zero on every workload:
// the failure and accuracy figures are reported as their complements
// (ok_frac, accuracy, scene_recall) for that reason.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"host_fps", "frames/s", "higher", 0.25},
	{"cpu_us_per_frame", "us", "lower", 0.25},
	{"alloc_kb_per_frame", "KB", "lower", 0.25},
	{"peak_heap_mb", "MB", "lower", 0.25},
	{"peak_goroutines", "count", "lower", 0.1},
	{"model_fps", "frames/s", "higher", 0.25},
	{"model_p99_ms", "ms", "lower", 0.25},
	{"accuracy", "fraction", "higher", 0.06},
	{"scene_recall", "fraction", "higher", 0.06},
	{"ok_frac", "fraction", "higher", 0.01},
}

// perLayer are the single-layer figures, printed by a traced run
// (--trace 1).
var perLayer = []metric{
	{Name: "lab.train_s", Unit: "s", Better: "lower"},
	{Name: "lab.mint_us_per_stream", Unit: "us", Better: "lower"},
	{Name: "vidgen.next_us", Unit: "us", Better: "lower"},
	{Name: "vidgen.host_frac", Unit: "fraction", Better: "lower"},
	{Name: "sdd.process_us", Unit: "us", Better: "lower"},
	{Name: "sdd.allocs_per_call", Unit: "count", Better: "lower"},
	{Name: "sdd.pass_frac", Unit: "fraction", Better: "lower"},
	{Name: "snm.batch_us", Unit: "us", Better: "lower"},
	{Name: "snm.us_per_frame", Unit: "us", Better: "lower"},
	{Name: "snm.allocs_per_call", Unit: "count", Better: "lower"},
	{Name: "snm.batch_mean", Unit: "frames", Better: "higher"},
	{Name: "snm.pass_frac", Unit: "fraction", Better: "lower"},
	{Name: "tyolo.detect_us", Unit: "us", Better: "lower"},
	{Name: "tyolo.calls", Unit: "count", Better: "lower"},
	{Name: "tyolo.pass_frac", Unit: "fraction", Better: "lower"},
	{Name: "ref.detect_us", Unit: "us", Better: "lower"},
	{Name: "ref.frames", Unit: "count", Better: "lower"},
	{Name: "ref.result_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "device.cpu_util", Unit: "fraction", Better: "lower"},
	{Name: "device.gpu0_util", Unit: "fraction", Better: "lower"},
	{Name: "device.gpu1_util", Unit: "fraction", Better: "lower"},
	{Name: "stage.decode.service_ms", Unit: "ms", Better: "lower"},
	{Name: "stage.sdd.wait_ms", Unit: "ms", Better: "lower"},
	{Name: "stage.sdd.service_ms", Unit: "ms", Better: "lower"},
	{Name: "stage.snm.wait_ms", Unit: "ms", Better: "lower"},
	{Name: "stage.snm.service_ms", Unit: "ms", Better: "lower"},
	{Name: "stage.t-yolo.wait_ms", Unit: "ms", Better: "lower"},
	{Name: "stage.t-yolo.service_ms", Unit: "ms", Better: "lower"},
	{Name: "stage.ref.wait_ms", Unit: "ms", Better: "lower"},
	{Name: "stage.ref.service_ms", Unit: "ms", Better: "lower"},
	{Name: "queue.blocked_puts", Unit: "count", Better: "lower"},
	{Name: "ingest.lag_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.self_frac", Unit: "fraction", Better: "lower"},
	{Name: "cluster.admits", Unit: "count", Better: "higher"},
	{Name: "cluster.reforwards", Unit: "count", Better: "lower"},
	{Name: "cluster.rejects", Unit: "count", Better: "lower"},
	{Name: "cluster.heap_kb_per_stream", Unit: "KB", Better: "lower"},
	{Name: "cluster.goroutines_per_stream", Unit: "count", Better: "lower"},
	{Name: "frame.pool_reuse_frac", Unit: "fraction", Better: "higher"},
	{Name: "gc.cpu_frac", Unit: "fraction", Better: "lower"},
	{Name: "host.calib_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "fraction", Better: "lower"},
	{Name: "par.speedup", Unit: "x", Better: "higher"},
}

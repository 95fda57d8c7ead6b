// Package pipeline implements FFS-VA's four-stage pipelined filtering
// engine (paper §3.1): per-stream prefetch → SDD → SNM stages feeding a
// globally shared T-YOLO stage and a final reference-model stage, all
// decoupled by bounded feedback queues (§4.3.1), with static, feedback
// and dynamic batch policies for the SNM (§4.3.2), and task placement on
// modeled CPU/GPU devices.
//
// The same engine runs under a RealClock (real-time emulation with real
// filter computation) or a VirtualClock (deterministic discrete-event
// timing for the benchmark harness); filter decisions always come from
// running the real filter algorithms over the frames.
package pipeline

import (
	"fmt"
	"sync"
	"time"

	"ffsva/internal/detect"
	"ffsva/internal/device"
	"ffsva/internal/filters"
	"ffsva/internal/frame"
	"ffsva/internal/metrics"
	"ffsva/internal/queue"
	"ffsva/internal/spill"
	"ffsva/internal/trace"
	"ffsva/internal/vclock"
)

// Mode selects the paper's two scenarios.
type Mode int

// Analysis modes.
const (
	// Offline processes stored video as fast as possible.
	Offline Mode = iota
	// Online paces each stream at its capture FPS and must keep up.
	Online
)

// String names the mode.
func (m Mode) String() string {
	if m == Online {
		return "online"
	}
	return "offline"
}

// BatchPolicy selects how the SNM stage forms batches (paper §5.4).
type BatchPolicy int

// Batch policies.
const (
	// BatchStatic waits for a full BatchSize using effectively unbounded
	// queues (no feedback).
	BatchStatic BatchPolicy = iota
	// BatchFeedback waits for a full batch bounded by the queue depth
	// threshold (feedback-queue mechanism alone).
	BatchFeedback
	// BatchDynamic drains whatever is available up to BatchSize, never
	// waiting for a full batch (the paper's dynamic batch mechanism).
	BatchDynamic
)

// String names the policy.
func (b BatchPolicy) String() string {
	switch b {
	case BatchStatic:
		return "static"
	case BatchFeedback:
		return "feedback"
	default:
		return "dynamic"
	}
}

// Disposition records where a frame's journey ended.
type Disposition int8

// Frame dispositions.
const (
	DropSDD Disposition = iota
	DropSNM
	DropTYolo
	Detected // reached and was analyzed by the reference model
	// DropClosed marks a frame discarded because its downstream queue had
	// been closed (e.g. a stream stopped for cluster re-forwarding while
	// frames were in flight). Without this disposition such frames would
	// vanish with no Record, leaving Done=false holes that silently skew
	// accuracy and latency accounting.
	DropClosed
	// DropError marks a frame lost to a fault: a decode failure past the
	// retry budget, a corrupted payload, or an instance crash while the
	// frame was in flight. Recording it keeps the conservation invariant
	// intact through failures.
	DropError
	// DropShed marks a frame dropped by the load-shedding bypass: with
	// Config.ShedAfter exceeded and the capture buffer full, ingest sheds
	// instead of stalling, preserving the ≥30 FPS capture guarantee.
	DropShed
	// DropAdmission marks a frame rejected before ingest: the cluster
	// scheduler refused the whole stream (tenant quota exhausted, cluster
	// quota exhausted, or no live instance), so its entire frame budget is
	// charged here. No pipeline ever sees these frames — the cluster
	// report's Drops ledger carries them, keeping cluster-wide frame
	// conservation (admitted + rejected = offered) checkable.
	DropAdmission

	// NumDispositions sizes per-disposition count arrays.
	NumDispositions = 8
)

// String names the disposition.
func (d Disposition) String() string {
	switch d {
	case DropSDD:
		return "drop-sdd"
	case DropSNM:
		return "drop-snm"
	case DropTYolo:
		return "drop-t-yolo"
	case DropClosed:
		return "drop-closed"
	case DropError:
		return "drop-error"
	case DropShed:
		return "drop-shed"
	case DropAdmission:
		return "drop-admission"
	default:
		return "detected"
	}
}

// Record is the per-frame outcome kept for accuracy and latency analysis.
// It deliberately retains no pixel data.
type Record struct {
	// Done distinguishes a written record from a zero value.
	Done        bool
	Seq         int64
	Disposition Disposition
	Captured    time.Duration
	Decided     time.Duration
	// TruthCount is the ground-truth number of target objects (from the
	// synthetic annotation); -1 when unknown.
	TruthCount int
	// SceneID is the ground-truth scene id (0 = none).
	SceneID int64
	// MaxVisible is the largest visible fraction among ground-truth
	// target boxes, 0 when none.
	MaxVisible float64
	// RefCount is the reference model's target count for frames that
	// reached it; -1 otherwise. Under consolidation this is the count
	// over the packed crops (truncation-adjusted).
	RefCount int
	// RefFullCount is what a full-frame reference inference counts for
	// the same frame; -1 when not measured. It differs from RefCount
	// only under consolidation, where crops can truncate objects —
	// lab.ScoreConsolidation reports the delta.
	RefFullCount int
}

// Latency returns the frame's decision latency.
func (r Record) Latency() time.Duration { return r.Decided - r.Captured }

// FrameSource produces a stream's frames; vidgen.Stream implements it.
type FrameSource interface {
	Next() *frame.Frame
}

// FallibleSource is a FrameSource whose decodes can fail (fault
// injection; faults.Source implements it). The prefetcher probes
// DecodeFails before pulling: each true is one failed attempt, retried
// within Config.DecodeRetryBudget. A frame still failing past the
// budget is abandoned via Discard — the source advances past it without
// delivering a frame — and recorded as DropError so the conservation
// ledger stays complete. The probe/pull split keeps the actual pull
// atomic with the stop check (continuation sizing), which a consuming
// try-decode could not.
type FallibleSource interface {
	FrameSource
	DecodeFails() bool
	Discard()
}

// StreamSpec is one video stream plus its specialized filters.
type StreamSpec struct {
	ID     int
	Source FrameSource
	// Frames is how many frames to process.
	Frames int
	// FPS paces online ingest (default 30).
	FPS int
	// StartAt delays the stream's first frame (cluster admission).
	StartAt time.Duration

	SDD *filters.SDD
	SNM *filters.SNM
	// TYolo is this stream's counting filter; its Det detector is shared
	// across streams by construction.
	TYolo *filters.TYolo
	// Target is the stream's target class, used for record truth fields.
	Target frame.Class
	// SeqBase is the source sequence number of the stream's first frame;
	// non-zero when a stream is a migrated continuation (cluster
	// re-forwarding) of an earlier stream.
	SeqBase int64
}

// Config assembles a System.
type Config struct {
	Clock vclock.Clock
	Costs device.CostModel
	// ChargeCosts enables device service-time charging. When false the
	// pipeline is purely functional (real compute, no modeled time).
	ChargeCosts bool
	Mode        Mode
	BatchPolicy BatchPolicy
	// BatchSize is the SNM batch bound (paper default 10 in-pipeline).
	BatchSize int
	// Queue depth thresholds (paper §4.3.1 defaults 2/10/2).
	DepthSDD, DepthSNM, DepthTYolo int
	// NumTYolo caps frames taken from one stream per T-YOLO cycle
	// (§3.2.3 inter-stream fairness).
	NumTYolo int
	// DepthRef bounds the reference queue.
	DepthRef int
	// IngestBuffer is the online capture buffer in frames: scene bursts
	// park here while the back-end catches up, so ingest holds 30 FPS
	// (the paper's bypass; it reports online latencies of several
	// seconds as tolerable). Offline runs use DepthSDD instead, since
	// stored video needs no capture buffer.
	IngestBuffer int
	// SpillToStorage enables the §5.5 burst remedy: when a stream's
	// capture buffer is full, frames divert to a disk-backed spill store
	// instead of blocking ingest, and re-inject in order once the
	// pipeline has room. Online mode only.
	SpillToStorage bool
	// FilterGPUs is how many GPUs carry the filter stages (the paper's
	// §4.3.2 note: "tasks of SNM or T-YOLO can be reasonably distributed
	// across multiple GPUs"). Each stream's SNM is pinned to GPU
	// (ID mod FilterGPUs); the shared T-YOLO round-robins its batches
	// across all filter GPUs. The reference model always has its own
	// additional GPU. Default 1, the paper's two-GPU server.
	FilterGPUs int
	// CPUSlots is CPU core capacity for decode/SDD/resize tasks.
	CPUSlots int
	// Ref is the reference model detector (shared).
	Ref detect.Detector
	// RefConf is the confidence threshold applied to the reference
	// model's detections when counting target objects; zero means the
	// default 0.5.
	RefConf float64

	// Object-level consolidation of the reference tier (Rivas et al.):
	// instead of one full-frame reference inference per surviving frame,
	// T-YOLO's candidate boxes are cropped with padding, shelf-packed
	// into fixed canvases across streams, and each canvas costs one
	// reference inference. See DESIGN.md §15.

	// Consolidate turns crop-and-pack consolidation on.
	Consolidate bool
	// ConsolidateCanvas is the square canvas side in pixels (default
	// 416, the YOLOv2 input).
	ConsolidateCanvas int
	// ConsolidatePad is the padding added around each candidate crop
	// (default 8); padding recovers objects T-YOLO localized loosely.
	ConsolidatePad int
	// ConsolidateFrames bounds how many frames one consolidation round
	// gathers from the reference queue (default 16).
	ConsolidateFrames int
	// ConsolidateWait is the deadline a partially-filled round waits for
	// more frames before packing what it has (default 2ms of modeled
	// time); zero-with-Consolidate uses the default, negative disables
	// the top-up wait.
	ConsolidateWait time.Duration
	// ConsolidateMinCover is the fraction of a reference detection's box
	// that must fall inside a single crop for the detection to count in
	// the consolidated tally (default 0.7). Objects truncated by crop
	// boundaries below it are the consolidation accuracy cost.
	ConsolidateMinCover float64

	// Fault tolerance.

	// DecodeRetryBudget is how many times a failed frame decode is
	// retried before the frame is abandoned with DropError. Zero means
	// the default (2); negative disables retries.
	DecodeRetryBudget int
	// ShedAfter enables the load-shedding bypass when positive: once a
	// stream's ingest lateness exceeds it, frames that do not fit in the
	// capture buffer are shed (DropShed) instead of blocking ingest, so
	// capture holds its FPS while the back-end is degraded. Zero keeps
	// the default blocking behaviour.
	ShedAfter time.Duration
	// AdjustService, when set, post-processes every modeled device
	// service time: it receives the device name, the current clock time,
	// and the nominal duration, and returns the duration to charge. The
	// faults package supplies it to inject device slowdowns and stalls;
	// it must be fast and must not block.
	AdjustService func(dev string, now, dur time.Duration) time.Duration
	// HeartbeatEvery, when positive, runs a liveness heartbeat process:
	// the instance stamps its clock time every interval until it crashes
	// or finishes. A cluster manager detects a dead instance by the
	// stamp going stale. Zero (the default) runs no heartbeat.
	HeartbeatEvery time.Duration

	// Tracer, when set, records a per-frame span trace (queue waits,
	// batch assembly, per-device service; see internal/trace). Nil — the
	// default — keeps the hot path span-free: frames carry a nil trace
	// record and every instrumentation point is one pointer check.
	Tracer *trace.Tracer
	// Instance tags this pipeline's spans and instants with its cluster
	// instance id (0 for single-instance runs), so one Tracer can hold a
	// whole cluster's timeline.
	Instance int

	// Ablation switches (not part of the paper's system; used by the
	// ablation benches to quantify each design choice).

	// DisableSDD bypasses the difference detector: every frame goes
	// straight to the SNM.
	DisableSDD bool
	// DisableSNM bypasses the specialized network: every SDD survivor
	// goes straight to T-YOLO.
	DisableSNM bool
	// PerStreamTYolo models one private T-YOLO per stream instead of the
	// shared model: every T-YOLO batch pays a full model reload.
	PerStreamTYolo bool
	// TYoloReload is the per-batch reload charge under PerStreamTYolo
	// (defaults to 60ms, ~1.2 GB over PCIe).
	TYoloReload time.Duration
}

// DefaultConfig returns the paper's defaults on a fresh clock.
func DefaultConfig(clk vclock.Clock) Config {
	return Config{
		Clock:       clk,
		Costs:       device.Calibrated(),
		ChargeCosts: true,
		Mode:        Offline,
		BatchPolicy: BatchDynamic,
		BatchSize:   10,
		DepthSDD:    2, DepthSNM: 10, DepthTYolo: 2,
		NumTYolo: 8,
		DepthRef: 4,
		CPUSlots: 16,
		Ref:      detect.NewOracle(detect.DefaultOracleConfig()),
	}
}

func (c *Config) fill() {
	if c.BatchSize <= 0 {
		c.BatchSize = 10
	}
	if c.DepthSDD <= 0 {
		c.DepthSDD = 2
	}
	if c.DepthSNM <= 0 {
		c.DepthSNM = 10
	}
	if c.DepthTYolo <= 0 {
		c.DepthTYolo = 2
	}
	if c.DepthRef <= 0 {
		c.DepthRef = 4
	}
	if c.NumTYolo <= 0 {
		c.NumTYolo = 8
	}
	if c.CPUSlots <= 0 {
		c.CPUSlots = 16
	}
	if c.IngestBuffer <= 0 {
		c.IngestBuffer = 600 // 20 s at 30 FPS
	}
	if c.FilterGPUs <= 0 {
		c.FilterGPUs = 1
	}
	switch {
	case c.DecodeRetryBudget == 0:
		c.DecodeRetryBudget = 2
	case c.DecodeRetryBudget < 0:
		c.DecodeRetryBudget = 0
	}
	if c.RefConf <= 0 {
		c.RefConf = 0.5
	}
	if c.ConsolidateCanvas <= 0 {
		c.ConsolidateCanvas = 416
	}
	if c.ConsolidatePad <= 0 {
		c.ConsolidatePad = 8
	}
	if c.ConsolidateFrames <= 0 {
		c.ConsolidateFrames = 16
	}
	switch {
	case c.ConsolidateWait == 0:
		c.ConsolidateWait = 2 * time.Millisecond
	case c.ConsolidateWait < 0:
		c.ConsolidateWait = 0
	}
	if c.ConsolidateMinCover <= 0 {
		c.ConsolidateMinCover = 0.7
	}
}

// streamState is the per-stream runtime.
type streamState struct {
	spec StreamSpec

	sddQ *queue.Queue[*frame.Frame]
	snmQ *queue.Queue[*frame.Frame]
	tyQ  *queue.Queue[*frame.Frame]

	records []Record
	spill   *spill.Store // nil unless Config.SpillToStorage

	ingested  int64
	firstCap  time.Duration
	lastDone  time.Duration
	ingestLag time.Duration // worst lateness vs. the capture schedule
	curLag    time.Duration // most recent lateness (overload signal)
	// counts tallies decided frames by Disposition as they finish, so the
	// live Snapshot can report per-stage drops before Report runs.
	counts     [NumDispositions]int64
	stop       bool // set by StopStream; prefetch halts at next frame
	ingestDone bool // prefetch exhausted its frames (or stopped)
}

// System is one FFS-VA instance: devices, queues, and stage processes for
// a set of streams.
type System struct {
	cfg Config

	cpu *device.Device
	// filterGPUs carry SNMs and T-YOLO (paper placement: one GPU shared
	// by all filters; more with Config.FilterGPUs).
	filterGPUs []*device.Device
	gpu1       *device.Device // reference model
	disk       *device.Device // spill storage (nil unless enabled)

	streams []*streamState
	refQ    *queue.Queue[*frame.Frame]

	// tyNotifies has one wake signal per T-YOLO worker (one worker per
	// filter GPU; streams are partitioned by ID).
	tyNotifies []*notify
	tyLive     int // running T-YOLO workers (guarded by streamsMu)

	start     time.Duration
	end       time.Duration
	tyMeter   *metrics.SyncMeter
	latency   *metrics.Histogram
	snmBatch  metrics.IntDist
	refServed metrics.Counter
	orphans   metrics.Counter // frames that reached the reference stage with no owning stream
	canvases  metrics.Counter // consolidated canvases inferred by the reference model
	faults    metrics.Counter // injected fault manifestations
	retries   metrics.Counter // decode retries within the budget

	recMu     sync.Locker // guards per-stream record bookkeeping
	streamsMu sync.Locker // guards streams slice after Start
	liveMu    sync.Locker // guards liveSNM, tyLive and finished

	started   bool
	finished  bool // refStage exited: no further frame can be decided
	cancelled bool // CancelAll stopped ingest early (guarded by recMu)
	crashed   bool // Crash() killed the instance (guarded by recMu)
	liveSNM   int  // SNM stages still running + holds
	// lastBeat is the heartbeat's latest clock stamp (guarded by recMu);
	// it freezes when the instance crashes or finishes.
	lastBeat time.Duration
}

// New builds a System; Start launches its processes on the configured
// clock.
func New(cfg Config, specs []StreamSpec) *System {
	cfg.fill()
	if cfg.Clock == nil {
		panic("pipeline: Config.Clock is required")
	}
	if cfg.Ref == nil {
		panic("pipeline: Config.Ref is required")
	}
	if cfg.PerStreamTYolo {
		// Inflate the T-YOLO activation charge to a full model reload;
		// tyStage invalidates the device before each batch so it is paid
		// every time.
		reload := cfg.TYoloReload
		if reload <= 0 {
			reload = 60 * time.Millisecond
		}
		costs := device.CostModel{}
		for k, v := range cfg.Costs {
			costs[k] = v
		}
		c := costs[device.ModelTYolo]
		c.Activate = reload
		costs[device.ModelTYolo] = c
		cfg.Costs = costs
	}
	s := &System{
		cfg:     cfg,
		cpu:     device.New(cfg.Clock, "cpu", device.CPU, cfg.CPUSlots),
		refQ:    queue.New[*frame.Frame](cfg.Clock, "ref", cfg.DepthRef),
		tyMeter: metrics.NewSyncMeter(time.Second, 5),
		latency: metrics.NewHistogram(),
	}
	for i := 0; i < cfg.FilterGPUs; i++ {
		s.filterGPUs = append(s.filterGPUs, device.New(cfg.Clock, fmt.Sprintf("gpu%d", i), device.GPU, 1))
	}
	s.gpu1 = device.New(cfg.Clock, fmt.Sprintf("gpu%d", cfg.FilterGPUs), device.GPU, 1)
	for i := 0; i < cfg.FilterGPUs; i++ {
		s.tyNotifies = append(s.tyNotifies, newNotify(cfg.Clock))
	}
	s.recMu = cfg.Clock.NewLocker()
	s.streamsMu = cfg.Clock.NewLocker()
	s.liveMu = cfg.Clock.NewLocker()
	if cfg.SpillToStorage {
		s.disk = device.New(cfg.Clock, "ssd", device.Disk, 1)
	}
	if cfg.AdjustService != nil {
		devs := append([]*device.Device{s.cpu, s.gpu1}, s.filterGPUs...)
		if s.disk != nil {
			devs = append(devs, s.disk)
		}
		for _, d := range devs {
			d := d
			d.SetAdjust(func(now, dur time.Duration) time.Duration {
				nd := cfg.AdjustService(d.Name, now, dur)
				if nd != dur {
					s.faults.Inc()
					cfg.Tracer.Instant("fault "+d.Name, "fault", cfg.Instance, now)
				}
				return nd
			})
		}
	}
	s.traceHooks(s.refQ, trace.KWaitRef)
	for _, spec := range specs {
		s.streams = append(s.streams, s.newStream(spec))
	}
	return s
}

// newStream validates a spec and builds its runtime state.
func (s *System) newStream(spec StreamSpec) *streamState {
	if spec.Frames <= 0 {
		panic(fmt.Sprintf("pipeline: stream %d has no frames", spec.ID))
	}
	if spec.FPS <= 0 {
		spec.FPS = 30
	}
	cfg := s.cfg
	snmDepth := cfg.DepthSNM
	if cfg.BatchPolicy == BatchStatic {
		// Static batching has no feedback: the SNM queue must hold a
		// full batch regardless of the depth threshold.
		snmDepth = max(cfg.BatchSize*4, cfg.DepthSNM)
	}
	sddDepth := cfg.DepthSDD
	if cfg.Mode == Online {
		sddDepth = max(cfg.IngestBuffer, cfg.DepthSDD)
	}
	var store *spill.Store
	if cfg.SpillToStorage && cfg.Mode == Online {
		store = spill.New(cfg.Clock, s.disk, cfg.ChargeCosts)
	}
	st := &streamState{
		spec:    spec,
		spill:   store,
		sddQ:    queue.New[*frame.Frame](cfg.Clock, fmt.Sprintf("sdd[%d]", spec.ID), sddDepth),
		snmQ:    queue.New[*frame.Frame](cfg.Clock, fmt.Sprintf("snm[%d]", spec.ID), snmDepth),
		tyQ:     queue.New[*frame.Frame](cfg.Clock, fmt.Sprintf("ty[%d]", spec.ID), cfg.DepthTYolo),
		records: make([]Record, spec.Frames),
	}
	s.traceHooks(st.sddQ, trace.KWaitSDD)
	s.traceHooks(st.snmQ, trace.KWaitSNM)
	s.traceHooks(st.tyQ, trace.KWaitTYolo)
	return st
}

// traceHooks turns a queue's put→pop interval into a queue-wait span on
// the resident frame and its feedback throttling into instant events.
// The hooks run under the queue lock, which is also what hands frame
// (and trace-record) ownership from producer to consumer — so the span
// writes are ordered without any locking of their own. No-op when
// tracing is off.
func (s *System) traceHooks(q *queue.Queue[*frame.Frame], k trace.Kind) {
	tr := s.cfg.Tracer
	if tr == nil {
		return
	}
	instance := s.cfg.Instance
	throttle := "throttle " + q.Name()
	q.SetHooks(queue.Hooks[*frame.Frame]{
		OnPut: func(f *frame.Frame, now time.Duration) {
			f.Trace.BeginWait(k, now)
		},
		OnPop: func(f *frame.Frame, now time.Duration) {
			f.Trace.EndWait(now)
		},
		OnBlocked: func(now time.Duration) {
			tr.Instant(throttle, "feedback", instance, now)
		},
	})
}

// notify is a clock-integrated counting signal used to wake the shared
// T-YOLO coordinator when any stream enqueues work.
type notify struct {
	mu interface {
		Lock()
		Unlock()
	}
	cond   vclock.Cond
	n      int
	closed bool
}

func newNotify(clk vclock.Clock) *notify {
	l := clk.NewLocker()
	return &notify{mu: l, cond: clk.NewCond(l)}
}

func (n *notify) add(k int) {
	n.mu.Lock()
	n.n += k
	n.cond.Signal()
	n.mu.Unlock()
}

func (n *notify) sub(k int) {
	n.mu.Lock()
	n.n -= k
	n.mu.Unlock()
}

// wait blocks until work is pending or the signal is closed; it reports
// whether work may remain. The n<=0 guard (rather than n==0) tolerates
// the real-clock race where the consumer drains an item before its add
// lands.
func (n *notify) wait() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	for n.n <= 0 && !n.closed {
		n.cond.Wait()
	}
	return n.n > 0 || !n.closed
}

func (n *notify) close() {
	n.mu.Lock()
	n.closed = true
	n.cond.Broadcast()
	n.mu.Unlock()
}

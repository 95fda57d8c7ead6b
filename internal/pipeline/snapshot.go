package pipeline

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"ffsva/internal/device"
	"ffsva/internal/queue"
)

// QueueSnapshot is one queue's uniform observability view.
type QueueSnapshot struct {
	Name        string `json:"name"`
	Depth       int    `json:"depth"`
	Cap         int    `json:"cap"`
	Puts        int64  `json:"puts"`
	Gets        int64  `json:"gets"`
	MaxDepth    int    `json:"max_depth"`
	BlockedPuts int64  `json:"blocked_puts"`
	ClosedPuts  int64  `json:"closed_puts"`
	Closed      bool   `json:"closed"`
}

func qsnap(name string, s queue.Stats) QueueSnapshot {
	return QueueSnapshot{
		Name: name, Depth: s.Depth, Cap: s.Cap,
		Puts: s.Puts, Gets: s.Gets, MaxDepth: s.MaxDepth,
		BlockedPuts: s.BlockedPuts, ClosedPuts: s.ClosedPuts, Closed: s.Closed,
	}
}

// StreamSnapshot is one stream's live state: ingest progress, queue
// depths and feedback counts, and decided frames by disposition.
type StreamSnapshot struct {
	ID       int   `json:"id"`
	Frames   int   `json:"frames"`
	Ingested int64 `json:"ingested"`
	// Decided is the number of frames with a final disposition; Ingested
	// minus Decided is the stream's in-flight population.
	Decided int64 `json:"decided"`
	// Drops indexes by Disposition (drop-sdd, drop-snm, drop-t-yolo,
	// detected, drop-closed).
	Drops      [NumDispositions]int64 `json:"drops"`
	IngestDone bool                   `json:"ingest_done"`
	Stopped    bool                   `json:"stopped"`
	// CurLag is the most recent lateness against the capture schedule
	// (zero once ingest completes); MaxLag the worst seen.
	CurLag time.Duration `json:"cur_lag"`
	MaxLag time.Duration `json:"max_lag"`
	// Backlog is the capture-buffer depth plus spilled frames — the
	// overload signal in frames; Backlog/FPS is seconds behind.
	Backlog      int           `json:"backlog"`
	SpillPending int           `json:"spill_pending"`
	Spilled      int64         `json:"spilled"`
	SDDQ         QueueSnapshot `json:"sdd_q"`
	SNMQ         QueueSnapshot `json:"snm_q"`
	TYQ          QueueSnapshot `json:"ty_q"`
}

// DeviceSnapshot is one device's live accounting.
type DeviceSnapshot struct {
	Name  string        `json:"name"`
	Kind  string        `json:"kind"`
	InUse int           `json:"in_use"`
	Slots int           `json:"slots"`
	Busy  time.Duration `json:"busy"`
	// BusyFraction is busy time over capacity × elapsed run time.
	BusyFraction float64 `json:"busy_fraction"`
	Served       int64   `json:"served"`
	Switches     int64   `json:"switches"`
}

// Snapshot is a live, consistent-enough view of a running System: every
// control signal the paper's mechanisms depend on — feedback-queue
// depths and blocked puts (§4.3.1), the T-YOLO rate behind the 140 FPS
// spare-capacity signal, ingest lag and backlog behind the overload
// signal, SNM batch-size distribution (§4.3.2), and device busy
// fractions — in one structure. The cluster manager and the periodic
// monitor both consume it.
type Snapshot struct {
	At          time.Duration `json:"at"`
	Mode        string        `json:"mode"`
	BatchPolicy string        `json:"batch_policy"`
	Finished    bool          `json:"finished"`
	// Crashed marks a dead instance (fault injection): its heartbeat is
	// frozen and in-flight frames drain to DropError.
	Crashed bool `json:"crashed,omitempty"`
	// Heartbeat is the instance's last liveness stamp (zero until the
	// heartbeat process first runs). The /healthz endpoint compares it
	// against At to detect a stalled instance.
	Heartbeat time.Duration `json:"heartbeat,omitempty"`
	// HeartbeatEvery echoes the configured heartbeat interval so health
	// checks know what staleness to tolerate (zero: no heartbeat runs).
	HeartbeatEvery time.Duration `json:"heartbeat_every,omitempty"`

	// Totals across streams.
	Ingested int64                  `json:"ingested"`
	Decided  int64                  `json:"decided"`
	InFlight int64                  `json:"in_flight"`
	Drops    [NumDispositions]int64 `json:"drops"`
	// Orphaned counts frames that reached the reference stage without an
	// owning stream (should stay zero).
	Orphaned int64 `json:"orphaned"`
	// RefCanvases counts consolidated canvases sent to the reference
	// model (zero unless Config.Consolidate).
	RefCanvases int64 `json:"ref_canvases,omitempty"`
	// FaultsInjected counts injected fault manifestations and Retries the
	// decode retries within budget; shed frames are Drops[DropShed].
	FaultsInjected int64 `json:"faults_injected"`
	Retries        int64 `json:"retries"`
	// Latency summarizes decision latency over the frames decided so far.
	Latency LatencySummary `json:"latency"`

	// Control signals (paper §4.3).
	TYoloRate    float64       `json:"tyolo_fps"`
	WorstLag     time.Duration `json:"worst_lag"`
	WorstBacklog int           `json:"worst_backlog"`
	Overloaded   bool          `json:"overloaded"`
	LiveStreams  int           `json:"live_streams"`

	// SNM batch-size distribution (counts indexed by batch size).
	SNMBatchCount int64   `json:"snm_batch_count"`
	SNMBatchMean  float64 `json:"snm_batch_mean"`
	SNMBatchMax   int     `json:"snm_batch_max"`
	SNMBatchDist  []int64 `json:"snm_batch_dist,omitempty"`

	Streams []StreamSnapshot `json:"streams"`
	RefQ    QueueSnapshot    `json:"ref_q"`
	Devices []DeviceSnapshot `json:"devices"`
}

// LatencySummary is the frame decision latency (capture to final
// verdict) distribution.
type LatencySummary struct {
	Count int64         `json:"count"`
	Mean  time.Duration `json:"mean"`
	P50   time.Duration `json:"p50"`
	P95   time.Duration `json:"p95"`
	P99   time.Duration `json:"p99"`
	Max   time.Duration `json:"max"`
}

func (s *System) latencySummary() LatencySummary {
	h := s.latency
	return LatencySummary{
		Count: h.Count(), Mean: h.Mean(),
		P50: h.Quantile(0.5), P95: h.Quantile(0.95), P99: h.Quantile(0.99),
		Max: h.Max(),
	}
}

// Snapshot samples the system's live state. It is safe to call from any
// clock process (the cluster manager, the periodic monitor) while stages
// run.
func (s *System) Snapshot() Snapshot {
	now := s.cfg.Clock.Now()
	sn := Snapshot{
		At:             now,
		Mode:           s.cfg.Mode.String(),
		BatchPolicy:    s.cfg.BatchPolicy.String(),
		Finished:       s.Finished(),
		Crashed:        s.Crashed(),
		Heartbeat:      s.Heartbeat(),
		HeartbeatEvery: s.cfg.HeartbeatEvery,
	}
	s.liveMu.Lock()
	elapsed := now - s.start
	s.liveMu.Unlock()
	for _, st := range s.snapshotStreams() {
		ss := StreamSnapshot{ID: st.spec.ID, Frames: st.spec.Frames}
		s.recMu.Lock()
		ss.Ingested = st.ingested
		ss.Drops = st.counts
		ss.CurLag = st.curLag
		ss.MaxLag = st.ingestLag
		ss.IngestDone = st.ingestDone
		ss.Stopped = st.stop
		s.recMu.Unlock()
		for _, n := range ss.Drops {
			ss.Decided += n
		}
		ss.SDDQ = qsnap(st.sddQ.Name(), st.sddQ.Stats())
		ss.SNMQ = qsnap(st.snmQ.Name(), st.snmQ.Stats())
		ss.TYQ = qsnap(st.tyQ.Name(), st.tyQ.Stats())
		if st.spill != nil {
			ss.SpillPending = st.spill.Pending()
			ss.Spilled = st.spill.Stats().Writes
		}
		ss.Backlog = ss.SDDQ.Depth + ss.SpillPending

		sn.Ingested += ss.Ingested
		sn.Decided += ss.Decided
		for i, n := range ss.Drops {
			sn.Drops[i] += n
		}
		if !ss.IngestDone && !ss.Stopped {
			sn.LiveStreams++
			if ss.CurLag > sn.WorstLag {
				sn.WorstLag = ss.CurLag
			}
		}
		if ss.Backlog > sn.WorstBacklog {
			sn.WorstBacklog = ss.Backlog
		}
		if ss.SNMQ.Depth >= ss.SNMQ.Cap || ss.TYQ.Depth >= ss.TYQ.Cap {
			sn.Overloaded = true
		}
		sn.Streams = append(sn.Streams, ss)
	}
	sn.InFlight = sn.Ingested - sn.Decided
	sn.Orphaned = s.orphans.Value()
	sn.RefCanvases = s.canvases.Value()
	sn.FaultsInjected = s.faults.Value()
	sn.Retries = s.retries.Value()
	sn.Latency = s.latencySummary()
	sn.RefQ = qsnap(s.refQ.Name(), s.refQ.Stats())
	sn.TYoloRate = s.tyMeter.Rate(now)
	sn.SNMBatchCount = s.snmBatch.Count()
	sn.SNMBatchMean = s.snmBatch.Mean()
	sn.SNMBatchMax = s.snmBatch.Max()
	sn.SNMBatchDist = s.snmBatch.Counts()

	sn.Devices = append(sn.Devices, devSnap("cpu", "cpu", s.cpu.Stats(), elapsed))
	for i, g := range s.filterGPUs {
		sn.Devices = append(sn.Devices, devSnap(fmt.Sprintf("gpu%d", i), "gpu", g.Stats(), elapsed))
	}
	sn.Devices = append(sn.Devices,
		devSnap(fmt.Sprintf("gpu%d", len(s.filterGPUs)), "gpu", s.gpu1.Stats(), elapsed))
	if s.disk != nil {
		sn.Devices = append(sn.Devices, devSnap("ssd", "disk", s.disk.Stats(), elapsed))
	}
	return sn
}

// devSnap builds a device view; it lives here (not in package device) so
// the busy-fraction denominator is the system's elapsed run time.
func devSnap(name, kind string, st device.Stats, elapsed time.Duration) DeviceSnapshot {
	d := DeviceSnapshot{
		Name: name, Kind: kind,
		InUse: st.InUse, Slots: st.Slots,
		Busy: st.Busy, Served: st.Served, Switches: st.Switches,
	}
	if elapsed > 0 && st.Slots > 0 {
		d.BusyFraction = float64(st.Busy) / (float64(st.Slots) * float64(elapsed))
	}
	return d
}

// Monitor registers a periodic observer process on the system's clock:
// every interval it takes a Snapshot and hands it to fn, until the
// system finishes (the final sample observes the finished state). It
// must be called before the clock runs the world, and works identically
// under RealClock and VirtualClock.
func (s *System) Monitor(every time.Duration, fn func(Snapshot)) {
	if every <= 0 {
		panic("pipeline: Monitor requires a positive interval")
	}
	s.cfg.Clock.Go("monitor", func() {
		for {
			s.cfg.Clock.Sleep(every)
			sn := s.Snapshot()
			fn(sn)
			if sn.Finished {
				return
			}
		}
	})
}

// JSON renders the snapshot as one JSON line (durations in nanoseconds).
func (sn Snapshot) JSON() string {
	b, err := json.Marshal(sn)
	if err != nil {
		return fmt.Sprintf(`{"error":%q}`, err.Error())
	}
	return string(b)
}

// String renders a compact multi-line text dump for the -metrics flag.
func (sn Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%v %s/%s ingested=%d decided=%d inflight=%d live=%d",
		sn.At.Round(time.Millisecond), sn.Mode, sn.BatchPolicy,
		sn.Ingested, sn.Decided, sn.InFlight, sn.LiveStreams)
	if sn.Finished {
		b.WriteString(" finished")
	}
	if sn.Crashed {
		b.WriteString(" CRASHED")
	}
	fmt.Fprintf(&b, "\n  signals: t-yolo=%.1ffps lag=%v backlog=%d overloaded=%v",
		sn.TYoloRate, sn.WorstLag.Round(time.Millisecond), sn.WorstBacklog, sn.Overloaded)
	fmt.Fprintf(&b, "\n  drops: sdd=%d snm=%d t-yolo=%d detected=%d closed=%d error=%d shed=%d admission=%d orphaned=%d",
		sn.Drops[DropSDD], sn.Drops[DropSNM], sn.Drops[DropTYolo],
		sn.Drops[Detected], sn.Drops[DropClosed], sn.Drops[DropError],
		sn.Drops[DropShed], sn.Drops[DropAdmission], sn.Orphaned)
	fmt.Fprintf(&b, "\n  snm batches: n=%d mean=%.1f max=%d", sn.SNMBatchCount, sn.SNMBatchMean, sn.SNMBatchMax)
	b.WriteString("\n  devices:")
	for _, d := range sn.Devices {
		fmt.Fprintf(&b, " %s=%.0f%%(%d/%d)", d.Name, 100*d.BusyFraction, d.InUse, d.Slots)
	}
	for _, ss := range sn.Streams {
		fmt.Fprintf(&b, "\n  stream %d: %d/%d in %d/%d decided, q sdd=%d/%d snm=%d/%d ty=%d/%d blocked=%d lag=%v",
			ss.ID, ss.Ingested, ss.Frames, ss.Decided, ss.Ingested,
			ss.SDDQ.Depth, ss.SDDQ.Cap, ss.SNMQ.Depth, ss.SNMQ.Cap, ss.TYQ.Depth, ss.TYQ.Cap,
			ss.SDDQ.BlockedPuts+ss.SNMQ.BlockedPuts+ss.TYQ.BlockedPuts,
			ss.CurLag.Round(time.Millisecond))
		if ss.Spilled > 0 {
			fmt.Fprintf(&b, " spilled=%d(pending %d)", ss.Spilled, ss.SpillPending)
		}
	}
	fmt.Fprintf(&b, "\n  ref q: %d/%d (blocked=%d)", sn.RefQ.Depth, sn.RefQ.Cap, sn.RefQ.BlockedPuts)
	return b.String()
}

package pipeline

import (
	"fmt"
	"time"

	"ffsva/internal/detect"
	"ffsva/internal/device"
	"ffsva/internal/filters"
	"ffsva/internal/frame"
	"ffsva/internal/trace"
)

// Start launches every stage process on the configured clock. The caller
// then runs the clock (clk.Run()) and finally collects Report().
func (s *System) Start() {
	clk := s.cfg.Clock
	s.liveMu.Lock()
	s.start = clk.Now()
	s.started = true
	s.liveSNM += len(s.streams)
	s.tyLive = len(s.tyNotifies)
	s.liveMu.Unlock()
	for _, st := range s.streams {
		s.launch(st)
	}
	for w := range s.tyNotifies {
		w := w
		clk.Go(fmt.Sprintf("t-yolo[%d]", w), func() { s.tyWorker(w) })
	}
	clk.Go("ref", s.refStage)
	if s.cfg.HeartbeatEvery > 0 {
		clk.Go("heartbeat", s.heartbeat)
	}
}

// heartbeat stamps liveness every HeartbeatEvery until the instance
// crashes or finishes. A crashed instance's stamp freezes at the crash
// time — the staleness a cluster manager's failure detection keys on.
func (s *System) heartbeat() {
	clk := s.cfg.Clock
	for {
		s.recMu.Lock()
		if s.crashed {
			s.recMu.Unlock()
			return
		}
		s.lastBeat = clk.Now()
		s.recMu.Unlock()
		if s.Finished() {
			return
		}
		clk.Sleep(s.cfg.HeartbeatEvery)
	}
}

// Crash marks the instance dead at the current clock time: ingest halts
// at the next frame boundary, every in-flight frame drains to DropError
// without consuming device time, and the heartbeat freezes so a cluster
// manager can detect the death. The frame ledger survives the crash —
// Report still satisfies conservation — and StopStream still sizes
// continuations correctly, which together let cluster recovery account
// for and re-forward every stream of the dead instance.
func (s *System) Crash() {
	s.recMu.Lock()
	s.crashed = true
	s.recMu.Unlock()
}

// Crashed reports whether Crash was called.
func (s *System) Crashed() bool {
	s.recMu.Lock()
	defer s.recMu.Unlock()
	return s.crashed
}

// Heartbeat returns the clock time of the instance's last liveness
// stamp. Zero until the heartbeat process (Config.HeartbeatEvery) first
// runs.
func (s *System) Heartbeat() time.Duration {
	s.recMu.Lock()
	defer s.recMu.Unlock()
	return s.lastBeat
}

// launch spawns the per-stream stage processes.
func (s *System) launch(st *streamState) {
	clk := s.cfg.Clock
	clk.Go(fmt.Sprintf("prefetch[%d]", st.spec.ID), func() { s.prefetch(st) })
	if st.spill != nil {
		clk.Go(fmt.Sprintf("spill[%d]", st.spec.ID), func() { s.spillDrainer(st) })
	}
	clk.Go(fmt.Sprintf("sdd[%d]", st.spec.ID), func() { s.sddStage(st) })
	clk.Go(fmt.Sprintf("snm[%d]", st.spec.ID), func() { s.snmStage(st) })
}

// spillDrainer re-injects spilled frames into the capture buffer in
// order as room appears (§5.5 burst remedy), then closes the buffer.
func (s *System) spillDrainer(st *streamState) {
	for {
		f, ok := st.spill.Read()
		if !ok {
			break
		}
		if !st.sddQ.Put(f) {
			s.finish(st, f, DropClosed, -1)
		}
		st.spill.Delivered()
	}
	st.sddQ.Close()
}

// Hold keeps the shared stages alive while no stream is running, so a
// manager process can add streams later (cluster admission). Every Hold
// must be paired with a Release.
func (s *System) Hold() {
	s.liveMu.Lock()
	s.liveSNM++
	s.liveMu.Unlock()
}

// Release undoes a Hold; when the last hold and stream finish, the shared
// stages shut down.
func (s *System) Release() { s.snmDone() }

// AddStream admits a new stream into a started system. It must be called
// from a clock process (or before Start via New's specs).
func (s *System) AddStream(spec StreamSpec) {
	st := s.newStream(spec)
	s.liveMu.Lock()
	if s.liveSNM <= 0 {
		s.liveMu.Unlock()
		panic("pipeline: AddStream after shared stages shut down (missing Hold?)")
	}
	s.liveSNM++
	s.liveMu.Unlock()
	s.streamsMu.Lock()
	s.streams = append(s.streams, st)
	s.streamsMu.Unlock()
	s.launch(st)
}

// StopStream halts a stream's ingest at the next frame boundary and
// returns how many frames remain unprocessed, so a cluster manager can
// re-forward the remainder to another instance. The second result is the
// stream's source, which the continuation must reuse.
func (s *System) StopStream(id int) (remaining int64, src FrameSource, nextSeq int64, ok bool) {
	s.streamsMu.Lock()
	defer s.streamsMu.Unlock()
	for _, st := range s.streams {
		if st.spec.ID == id && !st.stop {
			s.recMu.Lock()
			st.stop = true
			remaining = int64(st.spec.Frames) - st.ingested
			nextSeq = st.spec.SeqBase + st.ingested
			s.recMu.Unlock()
			return remaining, st.spec.Source, nextSeq, true
		}
	}
	return 0, nil, 0, false
}

// CancelAll halts every stream's ingest at its next frame boundary and
// marks the run cancelled. Frames already in flight drain through the
// cascade normally, so the conservation invariant (every ingested frame
// gets a final disposition) holds and the eventual Report is a valid
// partial result. Safe to call more than once; later AddStream streams
// are not affected (cluster migration decides their fate separately).
func (s *System) CancelAll() {
	s.streamsMu.Lock()
	defer s.streamsMu.Unlock()
	s.recMu.Lock()
	for _, st := range s.streams {
		st.stop = true
	}
	s.cancelled = true
	s.recMu.Unlock()
}

// Cancelled reports whether CancelAll was called.
func (s *System) Cancelled() bool {
	s.recMu.Lock()
	defer s.recMu.Unlock()
	return s.cancelled
}

// snapshotStreams copies the stream list for lock-free iteration.
func (s *System) snapshotStreams() []*streamState {
	s.streamsMu.Lock()
	defer s.streamsMu.Unlock()
	return append([]*streamState(nil), s.streams...)
}

// lookupStream finds the stream fragment owning the given source
// sequence number. A migrated continuation reuses its predecessor's id
// with a later SeqBase, so in-flight frames of the stopped fragment must
// still resolve to the fragment whose record window covers their seq —
// otherwise their records would be silently lost.
func (s *System) lookupStream(id int, seq int64) *streamState {
	s.streamsMu.Lock()
	defer s.streamsMu.Unlock()
	var fallback *streamState
	for i := len(s.streams) - 1; i >= 0; i-- {
		st := s.streams[i]
		if st.spec.ID != id {
			continue
		}
		if idx := seq - st.spec.SeqBase; idx >= 0 && idx < int64(len(st.records)) {
			return st
		}
		if fallback == nil {
			fallback = st
		}
	}
	return fallback
}

// Run is a convenience for sole owners of the clock: Start, run the world
// to completion, and report.
func (s *System) Run() *Report {
	s.Start()
	s.cfg.Clock.Run()
	return s.Report()
}

// prefetch decodes frames from the source and feeds the SDD queue,
// pacing at capture rate in online mode.
func (s *System) prefetch(st *streamState) {
	clk := s.cfg.Clock
	if st.spec.StartAt > 0 {
		clk.Sleep(st.spec.StartAt)
	}
	interval := time.Second / time.Duration(st.spec.FPS)
	epoch := clk.Now()
	fsrc, fallible := st.spec.Source.(FallibleSource)
	for i := 0; i < st.spec.Frames; i++ {
		target := epoch + time.Duration(i)*interval
		if s.cfg.Mode == Online {
			if now := clk.Now(); now < target {
				clk.Sleep(target - now)
			}
		}
		// A stopped (migrated/cancelled) or crashed stream must not pay
		// decode for a frame it will never ingest; the authoritative
		// check below re-runs atomically with the pull.
		s.recMu.Lock()
		halted := st.stop || s.crashed
		s.recMu.Unlock()
		if halted {
			break
		}
		// Decode, retrying transient failures within the budget. Every
		// attempt — failed or successful — pays the decode service time.
		decStart := clk.Now()
		lost := false
		if fallible {
			tries := 0
			for fsrc.DecodeFails() {
				s.faults.Inc()
				if s.cfg.ChargeCosts {
					s.cpu.Use(device.ModelDecode, 1, s.cfg.Costs)
				}
				tries++
				if tries > s.cfg.DecodeRetryBudget {
					lost = true
					break
				}
				s.retries.Inc()
			}
			// One instant per faulted frame (not per attempt), so decode
			// faults land on the timeline and arm flight-recorder dumps
			// like every other fault class.
			if tries > 0 {
				s.cfg.Tracer.Instant(fmt.Sprintf("fault decode stream %d", st.spec.ID), "fault", s.cfg.Instance, clk.Now())
			}
		}
		if !lost && s.cfg.ChargeCosts {
			s.cpu.Use(device.ModelDecode, 1, s.cfg.Costs)
		}
		// The stop check must be atomic with pulling the frame: StopStream
		// reads ingested to size the continuation, so once it returns this
		// prefetcher may not take another frame — a frame ingested after a
		// stale pre-decode check would be owned by both fragments and the
		// continuation's last frame would fall outside its record window.
		s.recMu.Lock()
		if st.stop || s.crashed {
			s.recMu.Unlock()
			break // stream re-forwarded elsewhere (or instance dead)
		}
		if lost {
			// Permanent decode failure: consume the frame's slot so the
			// source stays seq-aligned, and ledger it as DropError.
			seq := st.spec.SeqBase + st.ingested
			fsrc.Discard()
			if i == 0 {
				st.firstCap = clk.Now()
			}
			st.ingested++
			s.recMu.Unlock()
			s.finishLost(st, seq, DropError)
			continue
		}
		f := st.spec.Source.Next()
		f.StreamID = st.spec.ID
		f.Captured = clk.Now()
		if tr := s.cfg.Tracer; tr != nil {
			ft := tr.StartFrame(st.spec.ID, f.Seq, s.cfg.Instance, decStart)
			ft.AddSpan(trace.KDecode, decStart, f.Captured, "cpu", 0)
			f.Trace = ft
		}
		if i == 0 {
			st.firstCap = f.Captured
		}
		st.ingested++
		s.recMu.Unlock()
		late := clk.Now() - target
		if st.spill != nil {
			// Spill keeps ingest non-blocking: while spilled frames are
			// owed, new ones must also spill to preserve order.
			if st.spill.Pending() > 0 || !st.sddQ.TryPut(f) {
				f.Trace.BeginWait(trace.KWaitSpill, clk.Now())
				st.spill.Write(f)
			}
		} else if s.cfg.Mode == Online && s.cfg.ShedAfter > 0 && late > s.cfg.ShedAfter {
			// Load-shedding bypass: the stream has already fallen past the
			// threshold, so a full capture buffer sheds the frame instead
			// of stalling ingest — capture holds its FPS while the
			// back-end is degraded (the paper's ≥30 FPS ingest guarantee).
			if !st.sddQ.TryPut(f) {
				s.finish(st, f, DropShed, -1)
			}
		} else if !st.sddQ.Put(f) {
			s.finish(st, f, DropClosed, -1)
		}
		if s.cfg.Mode == Online {
			// Lateness against the capture schedule: sustained growth
			// means the stream is no longer analyzed in real time.
			lag := clk.Now() - target
			s.recMu.Lock()
			st.curLag = lag
			if lag > st.ingestLag {
				st.ingestLag = lag
			}
			s.recMu.Unlock()
		}
	}
	// Ingest is over: clear the lateness signal so a finished stream's
	// stale curLag cannot keep the instance looking overloaded forever.
	s.recMu.Lock()
	st.ingestDone = true
	st.curLag = 0
	s.recMu.Unlock()
	if st.spill != nil {
		st.spill.Close() // the drainer closes sddQ after re-injection
	} else {
		st.sddQ.Close()
	}
}

// sddStage runs the stream's difference detector on the CPU.
func (s *System) sddStage(st *streamState) {
	clk := s.cfg.Clock
	for {
		f, ok := st.sddQ.Get()
		if !ok {
			break
		}
		if s.Crashed() {
			// Dead instance: drain without consuming device time.
			s.finish(st, f, DropError, -1)
			continue
		}
		if f.Corrupt {
			// Damaged payload: reject before feeding the cascade garbage.
			s.faults.Inc()
			s.cfg.Tracer.Instant("fault corrupt-frame", "fault", s.cfg.Instance, clk.Now())
			s.finish(st, f, DropError, -1)
			continue
		}
		if s.cfg.DisableSDD {
			if !st.snmQ.Put(f) {
				s.finish(st, f, DropClosed, -1)
			}
			continue
		}
		sp := f.Trace.StartSpan(trace.KSDD, "cpu", clk.Now())
		if s.cfg.ChargeCosts {
			s.cpu.UseResize(device.ModelSDD, 1, s.cfg.Costs)
			s.cpu.Use(device.ModelSDD, 1, s.cfg.Costs)
		}
		if st.spec.SDD.Process(f) == filters.Drop {
			sp.EndDrop(clk.Now())
			s.finish(st, f, DropSDD, -1)
		} else {
			sp.End(clk.Now())
			if !st.snmQ.Put(f) {
				s.finish(st, f, DropClosed, -1)
			}
		}
	}
	st.snmQ.Close()
}

// snmStage runs the stream's specialized network on GPU-0 in batches
// formed according to the batch policy.
func (s *System) snmStage(st *streamState) {
	clk := s.cfg.Clock
	for {
		var batch []*frame.Frame
		switch s.cfg.BatchPolicy {
		case BatchDynamic:
			batch = st.snmQ.GetUpTo(s.cfg.BatchSize)
		default: // BatchStatic, BatchFeedback: wait for a full batch
			batch = st.snmQ.GetExact(s.cfg.BatchSize)
		}
		if len(batch) == 0 {
			break
		}
		if s.Crashed() {
			for _, f := range batch {
				s.finish(st, f, DropError, -1)
			}
			continue
		}
		s.snmBatch.Observe(len(batch))
		if s.cfg.DisableSNM {
			for _, f := range batch {
				if st.tyQ.Put(f) {
					s.tyNotifyFor(st).add(1)
				} else {
					s.finish(st, f, DropClosed, -1)
				}
			}
			continue
		}
		// Batch assembly (CPU resize of all members) and batched GPU
		// inference are timed separately so the trace splits
		// "stalled on batchmates" from "being computed".
		t0 := clk.Now()
		if s.cfg.ChargeCosts {
			s.cpu.UseResize(device.ModelSNM, len(batch), s.cfg.Costs)
		}
		t1 := clk.Now()
		if s.cfg.ChargeCosts {
			s.snmGPU(st).Use(device.ModelSNM, len(batch), s.cfg.Costs)
		}
		// One multi-sample forward for the whole batch: the network
		// computes each sample with the same per-sample loops, so the
		// verdicts match per-frame Process calls exactly while paying
		// the im2col and dispatch overhead once.
		verdicts := st.spec.SNM.ProcessBatch(batch)
		t2 := clk.Now()
		gpuName := s.snmGPU(st).Name
		for i, f := range batch {
			f.Trace.AddSpan(trace.KSNMAssemble, t0, t1, "cpu", len(batch))
			f.Trace.AddSpan(trace.KSNMInfer, t1, t2, gpuName, len(batch))
			if verdicts[i] == filters.Pass {
				// Blocks at the T-YOLO depth threshold: feedback.
				if st.tyQ.Put(f) {
					s.tyNotifyFor(st).add(1)
				} else {
					s.finish(st, f, DropClosed, -1)
				}
			} else {
				f.Trace.MarkDrop()
				s.finish(st, f, DropSNM, -1)
			}
		}
	}
	st.tyQ.Close()
	s.snmDone()
}

// snmGPU returns the filter GPU a stream's SNM is pinned to.
func (s *System) snmGPU(st *streamState) *device.Device {
	return s.filterGPUs[st.spec.ID%len(s.filterGPUs)]
}

// tyNotifyFor returns the wake signal of the T-YOLO worker that owns a
// stream's partition.
func (s *System) tyNotifyFor(st *streamState) *notify {
	return s.tyNotifies[st.spec.ID%len(s.tyNotifies)]
}

// snmDone closes the T-YOLO wake signals once the last SNM stage exits.
func (s *System) snmDone() {
	s.liveMu.Lock()
	s.liveSNM--
	last := s.liveSNM == 0
	s.liveMu.Unlock()
	if last {
		for _, n := range s.tyNotifies {
			n.close()
		}
	}
}

// tyDone closes the reference queue once the last T-YOLO worker exits.
func (s *System) tyDone() {
	s.liveMu.Lock()
	s.tyLive--
	last := s.tyLive == 0
	s.liveMu.Unlock()
	if last {
		s.refQ.Close()
	}
}

// tyWorker is one shared T-YOLO worker (one per filter GPU; the paper's
// design has exactly one): it cycles over the streams of its partition,
// draining at most NumTYolo frames from each per cycle (inter-stream
// load balancing, §4.3.1) and forwarding qualifying frames to the
// reference queue.
func (s *System) tyWorker(w int) {
	clk := s.cfg.Clock
	k := len(s.tyNotifies)
	note := s.tyNotifies[w]
	for note.wait() {
		for _, st := range s.snapshotStreams() {
			if st.spec.ID%k != w {
				continue
			}
			var batch []*frame.Frame
			for len(batch) < s.cfg.NumTYolo {
				f, ok := st.tyQ.TryGet()
				if !ok {
					break
				}
				batch = append(batch, f)
			}
			if len(batch) == 0 {
				continue
			}
			note.sub(len(batch))
			if s.Crashed() {
				for _, f := range batch {
					s.finish(st, f, DropError, -1)
				}
				continue
			}
			t0 := clk.Now()
			if s.cfg.ChargeCosts {
				s.cpu.UseResize(device.ModelTYolo, len(batch), s.cfg.Costs)
				tyGPU := s.filterGPUs[w]
				if s.cfg.PerStreamTYolo {
					// Each stream has its own T-YOLO: loading it evicts
					// the previous stream's copy, so every batch pays
					// the (inflated) activation charge on the GPU.
					tyGPU.Invalidate()
				}
				tyGPU.Use(device.ModelTYolo, len(batch), s.cfg.Costs)
			}
			gpuName := s.filterGPUs[w].Name
			// Consecutive spans over the batch: the first member absorbs
			// the batched device charge, the rest their own Process time.
			prev := t0
			for _, f := range batch {
				var verdict filters.Verdict
				if s.cfg.Consolidate {
					// Consolidation needs T-YOLO's candidate boxes
					// downstream: attach them to passing frames.
					var cands []frame.Candidate
					verdict, cands = st.spec.TYolo.ProcessCands(f)
					if verdict == filters.Pass {
						f.Cands = cands
					}
				} else {
					verdict = st.spec.TYolo.Process(f)
				}
				now := clk.Now()
				f.Trace.AddSpan(trace.KTYoloInfer, prev, now, gpuName, len(batch))
				prev = now
				if verdict == filters.Pass {
					if !s.refQ.Put(f) {
						f.Trace.MarkDrop()
						s.finish(st, f, DropClosed, -1)
					}
				} else {
					f.Trace.MarkDrop()
					s.finish(st, f, DropTYolo, -1)
				}
			}
			s.tyMeter.Mark(clk.Now(), int64(len(batch)))
		}
	}
	s.tyDone()
}

// refStage is the reference model on its dedicated GPU-1: per-frame
// full-frame inference by default, the crop-and-pack consolidator
// (consolidate.go) under Config.Consolidate.
func (s *System) refStage() {
	if s.cfg.Consolidate {
		s.refConsolidatedLoop()
	} else {
		s.refLoop()
	}
	s.liveMu.Lock()
	s.end = s.cfg.Clock.Now()
	s.finished = true
	s.liveMu.Unlock()
}

// refLoop is the classic per-frame reference path.
func (s *System) refLoop() {
	clk := s.cfg.Clock
	for {
		f, ok := s.refQ.Get()
		if !ok {
			break
		}
		if s.Crashed() {
			if st := s.lookupStream(f.StreamID, f.Seq); st != nil {
				s.finish(st, f, DropError, -1)
			} else {
				s.finishOrphan(f)
			}
			continue
		}
		// Resolve the stream before charging the device: an orphan costs
		// no reference inference.
		st := s.lookupStream(f.StreamID, f.Seq)
		if st == nil {
			s.finishOrphan(f)
			continue
		}
		sp := f.Trace.StartSpan(trace.KRef, s.gpu1.Name, clk.Now())
		if s.cfg.ChargeCosts {
			s.gpu1.Use(device.ModelRef, 1, s.cfg.Costs)
		}
		dets := s.cfg.Ref.Detect(f)
		sp.End(clk.Now())
		count := detect.Count(dets, st.spec.Target, s.cfg.RefConf)
		s.refServed.Inc()
		s.finishCounts(st, f, Detected, count, count)
	}
}

// finishOrphan retires a frame that reached the reference stage with no
// owning stream (its stream was retired or migrated with frames in
// flight). There is no record slot to write, but the pooled pixel plane
// must still be released and the trace must still reach the tracer's
// terminal — skipping either leaks both for every orphan. The orphan
// counter is the ledger entry that lets Report's conservation check
// explain the hole.
func (s *System) finishOrphan(f *frame.Frame) {
	s.orphans.Inc()
	if ft := f.Trace; ft != nil {
		f.Trace = nil
		s.cfg.Tracer.Finish(ft, "orphaned", true, s.cfg.Clock.Now())
	}
	f.Release()
}

// Finished reports whether the reference stage has exited, i.e. no
// further frame can be decided. The periodic monitor uses it to stop.
func (s *System) Finished() bool {
	s.liveMu.Lock()
	defer s.liveMu.Unlock()
	return s.finished
}

// finish records a frame's final disposition.
func (s *System) finish(st *streamState, f *frame.Frame, d Disposition, refCount int) {
	s.finishCounts(st, f, d, refCount, -1)
}

// finishCounts is finish with the reference tier's second tally: under
// consolidation refCount is the truncation-adjusted count over the
// packed crops and refFull the full-frame count, so accuracy accounting
// can measure what cropping cost.
func (s *System) finishCounts(st *streamState, f *frame.Frame, d Disposition, refCount, refFull int) {
	rec := Record{
		Done:         true,
		Seq:          f.Seq,
		Disposition:  d,
		Captured:     f.Captured,
		Decided:      s.cfg.Clock.Now(),
		TruthCount:   -1,
		RefCount:     refCount,
		RefFullCount: refFull,
	}
	if f.Truth != nil {
		rec.TruthCount = f.Truth.TargetCount(st.spec.Target)
		rec.SceneID = f.Truth.SceneID
		for _, b := range f.Truth.Boxes {
			if b.Class == st.spec.Target && b.Visible > rec.MaxVisible {
				rec.MaxVisible = b.Visible
			}
		}
	}
	s.latency.Observe(rec.Decided - rec.Captured)
	if ft := f.Trace; ft != nil {
		// finish is also the trace record's terminal point: detach it
		// before the frame is released so retention owns it exclusively.
		f.Trace = nil
		s.cfg.Tracer.Finish(ft, d.String(), d == DropError, rec.Decided)
	}
	s.recMu.Lock()
	if idx := f.Seq - st.spec.SeqBase; idx >= 0 && idx < int64(len(st.records)) {
		st.records[idx] = rec
	}
	if rec.Decided > st.lastDone {
		st.lastDone = rec.Decided
	}
	st.counts[d]++
	s.recMu.Unlock()
	// finish is the single terminal point of a frame's journey, so this
	// is the one place its pixel plane can go back to the frame pool
	// (a no-op for frames not built by frame.NewPooled).
	f.Release()
}

// finishLost records a frame that was consumed from the source but never
// delivered (decode failure past the retry budget): there is no frame
// object to route or release, but the slot must still appear in the
// ledger or the conservation invariant would see a hole.
func (s *System) finishLost(st *streamState, seq int64, d Disposition) {
	now := s.cfg.Clock.Now()
	rec := Record{
		Done: true, Seq: seq, Disposition: d,
		Captured: now, Decided: now,
		TruthCount: -1, RefCount: -1, RefFullCount: -1,
	}
	s.recMu.Lock()
	if idx := seq - st.spec.SeqBase; idx >= 0 && idx < int64(len(st.records)) {
		st.records[idx] = rec
	}
	if now > st.lastDone {
		st.lastDone = now
	}
	st.counts[d]++
	s.recMu.Unlock()
}

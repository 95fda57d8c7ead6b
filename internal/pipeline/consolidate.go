package pipeline

// Object-level consolidation of the reference tier (Rivas et al.,
// "Large-Scale Video Analytics through Object-Level Consolidation"; see
// DESIGN.md §15). Instead of one full-frame reference inference per
// surviving frame, the consolidator gathers survivors from across
// streams, crops T-YOLO's candidate boxes with padding, shelf-packs the
// crops into fixed canvases, and charges one reference inference per
// canvas — multiplying the reference GPU's effective capacity, since a
// canvas typically carries crops from several frames.
//
// Determinism: frames are consumed from the reference queue in arrival
// order (deterministic under the virtual clock), crops are packed
// strictly in that order with a first-come shelf heuristic (no sorting,
// no area heuristics), and the top-up wait is a fixed modeled duration.
// Two seeded runs therefore gather identical rounds, build identical
// canvases, and charge identical device time.

import (
	"ffsva/internal/detect"
	"ffsva/internal/device"
	"ffsva/internal/frame"
	"ffsva/internal/imgproc"
	"ffsva/internal/trace"
)

// refConsolidatedLoop drains the reference queue in consolidation
// rounds: gather up to ConsolidateFrames survivors (topping up for
// ConsolidateWait when the first grab comes back short), resolve their
// streams, pack, infer, unpack.
func (s *System) refConsolidatedLoop() {
	clk := s.cfg.Clock
	limit := s.cfg.ConsolidateFrames
	for {
		batch := s.refQ.GetUpTo(limit)
		if len(batch) == 0 {
			break // queue closed and drained
		}
		if len(batch) < limit && s.cfg.ConsolidateWait > 0 {
			// Deadline-bounded top-up: one fixed modeled wait, then take
			// whatever arrived. A single sleep (rather than a poll loop)
			// keeps the round's schedule deterministic.
			clk.Sleep(s.cfg.ConsolidateWait)
			for len(batch) < limit {
				f, ok := s.refQ.TryGet()
				if !ok {
					break
				}
				batch = append(batch, f)
			}
		}
		s.consolidateRound(batch)
	}
}

// consolidateRound runs one gather-pack-infer-unpack cycle over the
// batch. Every frame in the batch reaches a terminal: finishCounts for
// owned frames, finishOrphan for frames whose stream retired while they
// were in flight, finish(DropError) when the instance crashed.
func (s *System) consolidateRound(batch []*frame.Frame) {
	clk := s.cfg.Clock

	// Resolve streams first: orphans and crash drops cost no pack or
	// inference work.
	owners := make([]*streamState, len(batch))
	live := batch[:0:0]
	crashed := s.Crashed()
	for _, f := range batch {
		st := s.lookupStream(f.StreamID, f.Seq)
		if st == nil {
			s.finishOrphan(f)
			continue
		}
		if crashed {
			s.finish(st, f, DropError, -1)
			continue
		}
		owners[len(live)] = st
		live = append(live, f)
	}
	if len(live) == 0 {
		return
	}
	owners = owners[:len(live)]

	// Pack: crop every candidate with padding and shelf-place it onto
	// the open canvas, opening a new canvas when a crop does not fit.
	// The canvas pixels are genuinely assembled (the reference detector
	// is an oracle here, but the geometry and memory traffic are real).
	canvas := s.cfg.ConsolidateCanvas
	pad := s.cfg.ConsolidatePad
	packer := imgproc.NewShelfPacker(canvas, canvas)
	canvases := 1
	dst := imgproc.GetGray(canvas, canvas)
	for i := range dst.Pix {
		dst.Pix[i] = 0
	}
	crops := make([][]imgproc.Rect, len(live))
	totalCrops := 0
	packStart := clk.Now()
	for i, f := range live {
		g := imgproc.FromFrame(f)
		for _, c := range f.Cands {
			r, ok := imgproc.PadRect(imgproc.Rect{X: c.X, Y: c.Y, W: c.W, H: c.H}, pad, f.W, f.H)
			if !ok {
				continue
			}
			if r.W > canvas || r.H > canvas {
				// A crop larger than the canvas is clamped to it; the
				// coverage test below charges the truncation honestly.
				r.W = min(r.W, canvas)
				r.H = min(r.H, canvas)
			}
			x, y, placed := packer.Place(r.W, r.H)
			if !placed {
				// Canvas full: open a fresh one (the full one is charged
				// with the rest in the inference phase).
				canvases++
				packer = imgproc.NewShelfPacker(canvas, canvas)
				for j := range dst.Pix {
					dst.Pix[j] = 0
				}
				x, y, _ = packer.Place(r.W, r.H)
			}
			imgproc.CropInto(dst, g, r, x, y)
			crops[i] = append(crops[i], r)
			totalCrops++
		}
	}
	if s.cfg.ChargeCosts && totalCrops > 0 {
		s.cpu.Use(device.ModelPack, totalCrops, s.cfg.Costs)
	}
	packEnd := clk.Now()
	for _, f := range live {
		f.Trace.AddSpan(trace.KPack, packStart, packEnd, s.cpu.Name, len(live))
	}

	// Infer: one reference charge per canvas, not per frame — this is
	// the whole consolidation dividend.
	refStart := clk.Now()
	for k := 0; k < canvases; k++ {
		s.canvases.Inc()
		if s.cfg.ChargeCosts {
			s.gpu1.Use(device.ModelRef, 1, s.cfg.Costs)
		}
	}
	refEnd := clk.Now()

	// Unpack: translate canvas-level detections back into per-frame,
	// per-stream counts. The reference oracle detects on the full frame;
	// the crop-coverage clip models what a detector that only saw the
	// packed crops could have found — an object not covered by any crop
	// (or truncated below MinCover by a crop boundary) is lost to
	// consolidation, which is exactly the accuracy delta the lab scores.
	minCover := s.cfg.ConsolidateMinCover
	for i, f := range live {
		st := owners[i]
		f.Trace.AddSpan(trace.KRef, refStart, refEnd, s.gpu1.Name, len(live))
		dets := s.cfg.Ref.Detect(f)
		fullCount := detect.Count(dets, st.spec.Target, s.cfg.RefConf)
		rects := crops[i]
		count := 0
		for _, d := range dets {
			if d.Class != st.spec.Target || d.Conf < s.cfg.RefConf {
				continue
			}
			if imgproc.CoverFrac(d.Box, rects) >= minCover {
				count++
			}
		}
		t0 := clk.Now()
		f.Trace.AddSpan(trace.KUnpack, t0, t0, s.cpu.Name, len(crops[i]))
		s.refServed.Inc()
		s.finishCounts(st, f, Detected, count, fullCount)
	}
	dst.Release()
}

package pipeline_test

import (
	"testing"
	"time"

	"ffsva/internal/frame"
	"ffsva/internal/pipeline"
	"ffsva/internal/vclock"
)

// TestEarlyStopReturnsLookahead stops two 300-frame streams at 200 ms of
// virtual time, by CancelAll and by Crash. Each stream's source has
// already rendered the frame after the last one it delivered; that
// render must go back to the frame pool, so every plane the run took is
// returned. Before the fix each stopped stream leaked one plane.
func TestEarlyStopReturnsLookahead(t *testing.T) {
	stops := map[string]func(*pipeline.System){
		"cancel": (*pipeline.System).CancelAll,
		"crash":  (*pipeline.System).Crash,
	}
	for name, stop := range stops {
		clk := vclock.NewVirtual()
		sys := buildFaulty(t, clk, 2, 0.103, 300, nil, nil)
		g0, p0 := frame.PoolStats()
		clk.Go("stop", func() {
			clk.Sleep(200 * time.Millisecond)
			stop(sys)
		})
		rep := sys.Run()
		g1, p1 := frame.PoolStats()
		checkFaultConservation(t, rep)
		for _, sr := range rep.Streams {
			if sr.Ingested >= int64(sr.Frames) {
				t.Fatalf("%s: stream %d ingested all %d frames; stop earlier", name, sr.ID, sr.Frames)
			}
		}
		if gets, puts := g1-g0, p1-p0; gets != puts {
			t.Errorf("%s: frame pool gets %d, puts %d; want balanced", name, gets, puts)
		}
	}
}

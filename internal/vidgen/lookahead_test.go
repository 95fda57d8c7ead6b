package vidgen

import (
	"bytes"
	"hash/fnv"
	"reflect"
	"sync"
	"testing"

	"ffsva/internal/frame"
	"ffsva/internal/imgproc"
	"ffsva/internal/par"
)

// delivered is what a consumer observes for one frame: the frame itself
// and what the stream reports right after handing it over.
type delivered struct {
	seq   int64
	pix   []byte
	truth frame.Annotation
	bg    uint64 // hash of Background()
	tor   float64
}

func hashGray(g *imgproc.Gray) uint64 {
	h := fnv.New64a()
	h.Write(g.Pix)
	return h.Sum64()
}

// consume pulls n frames, recording each one and releasing its pooled
// plane so later renders reuse it. work runs between pulls, standing in
// for the pipeline stages the lookahead overlaps with.
func consume(s *Stream, n int, work func(*frame.Frame)) []delivered {
	out := make([]delivered, n)
	for i := range out {
		f := s.Next()
		if work != nil {
			work(f)
		}
		out[i] = delivered{
			seq:   f.Seq,
			pix:   append([]byte(nil), f.Pix...),
			truth: *f.Truth,
			bg:    hashGray(s.Background()),
			tor:   s.RealizedTOR(),
		}
		f.Release()
	}
	return out
}

// lookaheadConfig is a small stream that crosses a background switch.
func lookaheadConfig() Config {
	cfg := Small(77, frame.ClassCar, 0.3)
	cfg.W, cfg.H = 160, 120
	cfg.SceneSwitchFrame = 250
	cfg.SceneSwitchBGSeed = 4242
	return cfg
}

// TestLookaheadMatchesSerial consumes the same stream three ways — with
// no frame budget (every render synchronous), with a budget at pool
// width 1, and with a budget at full width while another goroutine
// keeps the pool busy with kernels — and requires identical frames,
// ground truth, backgrounds and realized TOR after every Next. The run
// crosses the scene switch and runs past the budget. Run it under
// -race: the worker renders while the consumer and the kernels work.
func TestLookaheadMatchesSerial(t *testing.T) {
	const n, budget = 600, 560
	cfg := lookaheadConfig()
	ref := consume(New(cfg), n, nil)

	prev := par.SetWorkers(1)
	s1 := New(cfg)
	s1.SetFrameBudget(budget)
	serial := consume(s1, n, nil)

	par.SetWorkers(4)
	defer par.SetWorkers(prev)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // unrelated kernels competing for the same workers
		defer wg.Done()
		buf := make([]float64, 1<<14)
		for k := 0; ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			par.For(len(buf), 256, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					buf[i] += float64(k + i)
				}
			})
		}
	}()
	s4 := New(cfg)
	s4.SetFrameBudget(budget)
	wide := consume(s4, n, func(f *frame.Frame) {
		imgproc.Resize(imgproc.FromFrame(f), 100, 100) // a stage's worth of work
	})
	close(stop)
	wg.Wait()

	initial := New(cfg).Background()
	for i := range ref {
		r := ref[i]
		wantSwitched := i >= cfg.SceneSwitchFrame
		if switched := r.bg != hashGray(initial); switched != wantSwitched {
			t.Fatalf("frame %d: background switched = %v, want %v", i, switched, wantSwitched)
		}
		for name, got := range map[string]delivered{"width 1": serial[i], "full width": wide[i]} {
			switch {
			case got.seq != r.seq:
				t.Fatalf("%s frame %d: seq %d, want %d", name, i, got.seq, r.seq)
			case !bytes.Equal(got.pix, r.pix):
				t.Fatalf("%s frame %d: pixels differ from the serial render", name, i)
			case !reflect.DeepEqual(got.truth, r.truth):
				t.Fatalf("%s frame %d: truth %+v, want %+v", name, i, got.truth, r.truth)
			case got.bg != r.bg:
				t.Fatalf("%s frame %d: Background() differs from the serial stream's", name, i)
			case got.tor != r.tor:
				t.Fatalf("%s frame %d: RealizedTOR() = %v, want %v", name, i, got.tor, r.tor)
			}
		}
	}
}

// TestLookaheadStaysWithinBudget checks that a stream renders no frame
// its consumer did not declare it would pull: after exactly the budget,
// the pool has lent out exactly that many planes and nothing is in
// flight. Pulling past the budget still works, synchronously.
func TestLookaheadStaysWithinBudget(t *testing.T) {
	defer par.SetWorkers(par.SetWorkers(4))
	const budget = 40
	s := New(lookaheadConfig())
	s.SetFrameBudget(budget)
	g0, _ := frame.PoolStats()
	for i := 0; i < budget; i++ {
		s.Next().Release()
	}
	if g1, _ := frame.PoolStats(); g1-g0 != budget {
		t.Fatalf("%d frames rendered for a budget of %d", g1-g0, budget)
	}
	if s.ahead != nil {
		t.Fatal("a render is pending past the budget")
	}
	for i := 0; i < 5; i++ {
		if f := s.Next(); f.Seq != int64(budget+i) {
			t.Fatalf("seq = %d past the budget, want %d", f.Seq, budget+i)
		}
		if s.ahead != nil {
			t.Fatal("a render was offered past the budget")
		}
	}
}

// TestDropAheadRewinds drops the pending render partway through a
// budgeted stream — what a stopped pipeline stream does — and keeps
// pulling, as a migrated continuation does. The dropped plane goes back
// to the pool, and every later frame matches the serial stream's.
func TestDropAheadRewinds(t *testing.T) {
	defer par.SetWorkers(par.SetWorkers(4))
	const n, budget, at = 300, 280, 120
	cfg := lookaheadConfig()
	ref := consume(New(cfg), n, nil)

	g0, p0 := frame.PoolStats()
	s := New(cfg)
	s.SetFrameBudget(budget)
	got := consume(s, at, nil)
	s.DropAhead()
	s.DropAhead() // a second drop has nothing to return
	if g1, p1 := frame.PoolStats(); g1-g0 != at+1 || p1-p0 != at+1 {
		t.Fatalf("after DropAhead: pool gets %d, puts %d; want %d each", g1-g0, p1-p0, at+1)
	}
	got = append(got, consume(s, n-at, nil)...)
	for i := range ref {
		switch {
		case got[i].seq != ref[i].seq:
			t.Fatalf("frame %d: seq %d, want %d", i, got[i].seq, ref[i].seq)
		case !bytes.Equal(got[i].pix, ref[i].pix):
			t.Fatalf("frame %d: pixels differ from the serial render", i)
		case !reflect.DeepEqual(got[i].truth, ref[i].truth):
			t.Fatalf("frame %d: truth %+v, want %+v", i, got[i].truth, ref[i].truth)
		case got[i].bg != ref[i].bg:
			t.Fatalf("frame %d: Background() differs from the serial stream's", i)
		}
	}
}

package obs_test

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ffsva/internal/core"
	"ffsva/internal/detect"
	"ffsva/internal/faults"
	"ffsva/internal/lab"
	"ffsva/internal/obs"
	"ffsva/internal/pipeline"
	"ffsva/internal/vclock"
)

var update = flag.Bool("update", false, "rewrite testdata/metrics.golden from the current exposition")

// scrapeLog returns a snapshot hook that pushes each snapshot into a
// fresh server and scrapes /metrics right after the push (in-process, no
// socket). A scrape that differs from the previous one is appended to
// log; an unchanged one (a drained run ticking on) only counts.
func scrapeLog(t *testing.T, run string, log *bytes.Buffer) func(int, pipeline.Snapshot) {
	s := obs.NewServer("", nil)
	h := s.Handler()
	n := 0
	var last []byte
	return func(instance int, sn pipeline.Snapshot) {
		s.Push(instance, sn)
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		if rr.Code != http.StatusOK {
			t.Errorf("%s scrape %d: status %d", run, n, rr.Code)
		}
		if body := rr.Body.Bytes(); !bytes.Equal(body, last) {
			fmt.Fprintf(log, "=== %s scrape %d: instance %d pushed at %v\n", run, n, instance, sn.At)
			log.Write(body)
			last = append(last[:0], body...)
		}
		n++
	}
}

// faultyOnline builds the online run of the golden test: four car
// streams at TOR 1.0 behind a capture buffer of 60 frames, with decode
// faults (some retried, some past the budget) and a slowed reference
// GPU that backs the cascade up until the shedding bypass fires.
func faultyOnline(t *testing.T) *pipeline.System {
	t.Helper()
	cam, err := lab.CarCamera(1.0)
	if err != nil {
		t.Fatal(err)
	}
	plan := []faults.Fault{
		{Kind: faults.DecodeError, Stream: 1, SeqFrom: 10, SeqTo: 20, Attempts: 3},
		{Kind: faults.DecodeError, Stream: 3, SeqFrom: 30, SeqTo: 34, Attempts: 1},
		{Kind: faults.DeviceSlow, Device: "gpu1", From: 0, Until: 4 * time.Second, Factor: 10},
	}
	inj := faults.NewInjector(faults.ForInstance(plan, 0))
	cfg := pipeline.DefaultConfig(vclock.NewVirtual())
	cfg.Mode = pipeline.Online
	cfg.IngestBuffer = 60
	cfg.ShedAfter = 500 * time.Millisecond
	cfg.AdjustService = inj.AdjustServiceTime
	tg := detect.NewTinyGrid(detect.DefaultTinyGridConfig())
	specs := make([]pipeline.StreamSpec, 4)
	for i := range specs {
		specs[i] = cam.Stream(i, tg, lab.StreamOptions{Seed: int64(1000 + i), Frames: 150})
		specs[i].Source = inj.WrapSource(specs[i].Source, specs[i].ID)
	}
	return pipeline.New(cfg, specs)
}

// TestMetricsGolden pins the /metrics exposition byte for byte. It
// scrapes after every snapshot push of two seeded virtual-clock runs —
// a fault-injected online run (decode retries and losses, a slowed
// reference GPU, load shedding) and a 2-instance cluster run — and
// compares the scrapes that changed with testdata/metrics.golden. Any
// change to family order, names, HELP text, number formatting or label
// rendering shows up as a diff. Regenerate with `go test -run
// TestMetricsGolden ./internal/obs -update` only for an intended format
// change.
func TestMetricsGolden(t *testing.T) {
	var log bytes.Buffer

	sys := faultyOnline(t)
	push := scrapeLog(t, "online", &log)
	sys.Monitor(250*time.Millisecond, func(sn pipeline.Snapshot) { push(0, sn) })
	if rep := sys.Run(); rep.ShedFrames == 0 || rep.Retries == 0 {
		t.Fatalf("online run shed %d frames and retried %d decodes; the golden run must exercise both",
			rep.ShedFrames, rep.Retries)
	}

	ccfg := core.DefaultClusterConfig()
	ccfg.Streams = 6
	ccfg.FramesPerStream = 60
	ccfg.ArrivalEvery = 300 * time.Millisecond
	ccfg.Faults = []faults.Fault{
		{Kind: faults.DecodeError, Stream: 2, SeqFrom: 5, SeqTo: 9, Attempts: 2},
	}
	ccfg.OnSnapshot = scrapeLog(t, "cluster", &log)
	if _, err := core.RunCluster(ccfg); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, log.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := log.Bytes(); !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("/metrics diverges from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("/metrics diverges from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}

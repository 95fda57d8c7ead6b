package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"ffsva/internal/pipeline"
	"ffsva/internal/trace"
)

// startServer binds a throwaway server on an ephemeral loopback port.
func startServer(t *testing.T, tr *trace.Tracer) *Server {
	t.Helper()
	s := NewServer("127.0.0.1:0", tr)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// get fetches a path and returns status code and body.
func get(t *testing.T, s *Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + s.Addr() + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// liveSnapshot builds a healthy running-instance snapshot.
func liveSnapshot(at time.Duration) pipeline.Snapshot {
	return pipeline.Snapshot{
		At:             at,
		Heartbeat:      at - 10*time.Millisecond,
		HeartbeatEvery: 100 * time.Millisecond,
		InFlight:       7,
		LiveStreams:    2,
		WorstBacklog:   3,
		WorstLag:       250 * time.Millisecond,
		Overloaded:     true,
		Ingested:       42,
		Drops:          [pipeline.NumDispositions]int64{pipeline.DropSDD: 5},
	}
}

// TestHealthzTransitions walks /healthz through its states: no push yet
// (503), a healthy push (200), a stale heartbeat (503), and a crash with
// no survivors (503).
func TestHealthzTransitions(t *testing.T) {
	s := startServer(t, nil)

	if code, body := get(t, s, "/healthz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "no snapshot") {
		t.Fatalf("before any push: %d %q", code, body)
	}

	s.Push(0, liveSnapshot(time.Second))
	if code, body := get(t, s, "/healthz"); code != http.StatusOK || !strings.Contains(body, "ok: 1/1") {
		t.Fatalf("healthy: %d %q", code, body)
	}

	stale := liveSnapshot(2 * time.Second)
	stale.Heartbeat = stale.At - 10*stale.HeartbeatEvery
	s.Push(0, stale)
	if code, body := get(t, s, "/healthz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "heartbeat") {
		t.Fatalf("stale heartbeat: %d %q", code, body)
	}

	// A finished instance is exempt from staleness (its heartbeat stops).
	done := stale
	done.Finished = true
	s.Push(0, done)
	if code, _ := get(t, s, "/healthz"); code != http.StatusOK {
		t.Fatalf("finished instance reported unhealthy: %d", code)
	}

	crashed := liveSnapshot(3 * time.Second)
	crashed.Crashed = true
	s.Push(0, crashed)
	if code, body := get(t, s, "/healthz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "all instances crashed") {
		t.Fatalf("all crashed: %d %q", code, body)
	}

	// A second live instance keeps the cluster healthy past one crash.
	s.Push(1, liveSnapshot(3*time.Second))
	if code, body := get(t, s, "/healthz"); code != http.StatusOK || !strings.Contains(body, "ok: 1/2") {
		t.Fatalf("one of two alive: %d %q", code, body)
	}
}

// TestMetricsExposition checks the Prometheus text rendering: snapshot
// fields gain the ffsva_ prefix and instance label, dispositions are
// keyed under label, counter families are _total-suffixed, HELP and TYPE
// lines appear once per family, and the derived control-signal gauges
// are present.
func TestMetricsExposition(t *testing.T) {
	s := startServer(t, nil)
	s.Push(0, liveSnapshot(time.Second))
	s.Push(1, liveSnapshot(2*time.Second))
	code, body := get(t, s, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	for _, want := range []string{
		"# HELP ffsva_frames_ingested_total Frames ingested across all streams.",
		"# TYPE ffsva_frames_ingested_total counter",
		`ffsva_frames_ingested_total{instance="0"} 42`,
		"# TYPE ffsva_frames_disposed_total counter",
		`ffsva_frames_disposed_total{instance="0",label="drop-sdd"} 5`,
		"# TYPE ffsva_in_flight gauge",
		`ffsva_in_flight{instance="0"} 7`,
		`ffsva_live_streams{instance="0"} 2`,
		`ffsva_worst_backlog{instance="0"} 3`,
		`ffsva_worst_lag_seconds{instance="0"} 0.25`,
		`ffsva_overloaded{instance="0"} 1`,
		`ffsva_up{instance="0"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
	// Family grouping: exactly one TYPE line per family even with two
	// instances pushed, and both instances' series sit under it.
	if strings.Count(body, "# TYPE ffsva_frames_ingested_total") != 1 {
		t.Fatalf("duplicate TYPE lines:\n%s", body)
	}
	if !strings.Contains(body, `ffsva_frames_ingested_total{instance="1"} 42`) {
		t.Fatalf("instance 1 series missing from family:\n%s", body)
	}
	// Counter hygiene: every counter TYPE names a _total family.
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "# TYPE ") && strings.HasSuffix(line, " counter") &&
			!strings.Contains(line, "_total ") {
			t.Fatalf("counter family missing _total suffix: %q", line)
		}
	}
}

// TestSnapshotEndpoint checks /snapshot round-trips the pushed data as
// JSON keyed by instance.
func TestSnapshotEndpoint(t *testing.T) {
	s := startServer(t, nil)
	s.Push(0, liveSnapshot(time.Second))
	s.Push(1, liveSnapshot(2*time.Second))
	code, body := get(t, s, "/snapshot")
	if code != http.StatusOK {
		t.Fatalf("snapshot status %d", code)
	}
	var out map[string]pipeline.Snapshot
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("snapshot not JSON: %v", err)
	}
	if len(out) != 2 || out["0"].InFlight != 7 || out["1"].At != 2*time.Second {
		t.Fatalf("snapshot content wrong: %v", out)
	}
}

// TestTracezEndpoint checks /tracez renders retained frames, and
// degrades gracefully with tracing off.
func TestTracezEndpoint(t *testing.T) {
	tr := trace.New(trace.Options{})
	ft := tr.StartFrame(0, 99, 0, 0)
	ft.AddSpan(trace.KSDD, 0, time.Millisecond, "cpu", 0)
	tr.Finish(ft, "detected", false, time.Millisecond)
	s := startServer(t, tr)
	code, body := get(t, s, "/tracez")
	if code != http.StatusOK || !strings.Contains(body, "detected") || !strings.Contains(body, "sdd@cpu") {
		t.Fatalf("tracez: %d %q", code, body)
	}

	off := startServer(t, nil)
	if code, body := get(t, off, "/tracez"); code != http.StatusOK || !strings.Contains(body, "tracing disabled") {
		t.Fatalf("tracez disabled: %d %q", code, body)
	}
}

// TestIndexAndNotFound checks the landing page and 404 behaviour.
func TestIndexAndNotFound(t *testing.T) {
	s := startServer(t, nil)
	if code, body := get(t, s, "/"); code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Fatalf("index: %d %q", code, body)
	}
	if code, _ := get(t, s, "/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown path status %d", code)
	}
}

// TestScrapeByteStable asserts the audit result for /metrics and
// /snapshot determinism: two servers holding the same logical state —
// pushed in different orders, with labeled metrics created in different
// orders inside each snapshot — serve byte-identical bodies, and a
// repeated scrape of one server is byte-identical to itself. Instance
// emission is sorted, registry samples keep registration order with
// sorted labels, and /snapshot JSON sorts its map keys.
func TestScrapeByteStable(t *testing.T) {
	snA := liveSnapshot(time.Second)
	snB := liveSnapshot(time.Second)
	snB.InFlight = 3

	s1 := startServer(t, nil)
	s1.Push(0, snA)
	s1.Push(1, snB)

	s2 := startServer(t, nil)
	s2.Push(1, snB) // reversed push order: same logical state
	s2.Push(0, snA)

	for _, path := range []string{"/metrics", "/snapshot"} {
		c1, b1 := get(t, s1, path)
		c2, b2 := get(t, s2, path)
		if c1 != http.StatusOK || c2 != http.StatusOK {
			t.Fatalf("%s: status %d vs %d", path, c1, c2)
		}
		if b1 != b2 {
			t.Errorf("%s differs across push orders:\n--- s1\n%s\n--- s2\n%s", path, b1, b2)
		}
		_, again := get(t, s1, path)
		if b1 != again {
			t.Errorf("%s differs across repeated scrapes of one server", path)
		}
	}
}

// TestCloseJoinsServeGoroutine is the regression test for the gostop
// finding: Close must not return until the serve goroutine has exited,
// so shutdown never leaks it.
func TestCloseJoinsServeGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	s := NewServer("127.0.0.1:0", nil)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if _, body := get(t, s, "/"); !strings.Contains(body, "observability") {
		t.Fatalf("unexpected index body %q", body)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Close wg.Waits on the serve goroutine, so only net/http's transient
	// per-connection goroutines may still be draining; poll them away.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines leaked across Close: %d before, %d after", before, n)
	}
}

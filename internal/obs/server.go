// Package obs is the live observability endpoint: a small net/http
// server exposing the pipeline's state while a run is in progress —
// Prometheus-text /metrics from a fixed family table over the typed
// pipeline.Snapshot, /snapshot JSON, /healthz wired to the heartbeat
// liveness process, and /tracez rendering the tracer's retained
// per-frame spans.
//
// The server sits outside the simulation: it never reads pipeline state
// directly (that would race the virtual clock's cooperative scheduler);
// instead the run's monitor process pushes immutable Snapshot values in,
// and handlers serve the latest push. Health staleness is judged by
// comparing clock values inside one snapshot (heartbeat vs At), so the
// endpoint works identically under virtual and real time. The only wall
// clock involved is net/http's own Date response header.
//
// Security: an address with no host (":8080") binds loopback only; an
// operator must name an interface explicitly to expose the endpoint.
package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ffsva/internal/pipeline"
	"ffsva/internal/timeline"
	"ffsva/internal/trace"
)

// Server is the observability HTTP server. Create with NewServer, feed
// with Push, and Start/Close around the run.
type Server struct {
	addr string
	tr   *trace.Tracer

	mu    sync.Mutex
	snaps map[int]pipeline.Snapshot
	rec   *timeline.Recorder

	ln  net.Listener
	srv *http.Server
	// wg joins the serve goroutine: Close must not return while it still
	// runs, or a fast teardown races the port release (the gostop
	// goroutine-leak class).
	wg sync.WaitGroup
}

// NewServer prepares a server for addr; tr may be nil (tracez then
// reports tracing disabled). Nothing listens until Start.
func NewServer(addr string, tr *trace.Tracer) *Server {
	return &Server{addr: addr, tr: tr, snaps: map[int]pipeline.Snapshot{}}
}

// Push stores an instance's latest snapshot; handlers serve it until
// the next push. Safe to call from any goroutine or clock process.
func (s *Server) Push(instance int, sn pipeline.Snapshot) {
	s.mu.Lock()
	s.snaps[instance] = sn
	s.mu.Unlock()
}

// SetTimeline attaches the flight recorder behind /timeline and
// /bottleneck; until one is attached both endpoints answer 503.
func (s *Server) SetTimeline(rec *timeline.Recorder) {
	s.mu.Lock()
	s.rec = rec
	s.mu.Unlock()
}

func (s *Server) timeline() *timeline.Recorder {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rec
}

// Start binds the listener and serves in the background. A host-less
// address like ":8080" binds 127.0.0.1 — exposing the endpoint beyond
// the local machine takes an explicit interface address.
func (s *Server) Start() error {
	addr := s.addr
	if strings.HasPrefix(addr, ":") {
		addr = "127.0.0.1" + addr
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.handler(), ReadHeaderTimeout: 5 * time.Second}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		if err := s.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			// The listener died under us; nothing to do but stop serving.
			_ = err
		}
	}()
	return nil
}

// handler routes every endpoint; Start serves it, and tests drive it
// in-process without a socket.
func (s *Server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/snapshot", s.handleSnapshot)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/tracez", s.handleTracez)
	mux.HandleFunc("/timeline", s.handleTimeline)
	mux.HandleFunc("/bottleneck", s.handleBottleneck)
	return mux
}

// Addr returns the bound address (host:port), or "" before Start.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the server, waits for the serve goroutine to exit, and
// releases the port.
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	err := s.srv.Close()
	s.wg.Wait()
	return err
}

// snapshot returns the stored snapshots keyed by instance, plus the
// sorted instance ids.
func (s *Server) snapshot() (map[int]pipeline.Snapshot, []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := make(map[int]pipeline.Snapshot, len(s.snaps))
	ids := make([]int, 0, len(s.snaps))
	for id, sn := range s.snaps {
		m[id] = sn
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return m, ids
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, `<!DOCTYPE html><html><head><title>ffsva</title></head><body>
<h1>ffsva observability</h1>
<ul>
<li><a href="/metrics">/metrics</a> — Prometheus text exposition</li>
<li><a href="/snapshot">/snapshot</a> — full pipeline snapshot JSON</li>
<li><a href="/healthz">/healthz</a> — heartbeat-backed liveness</li>
<li><a href="/tracez">/tracez</a> — recent sampled frame traces</li>
<li><a href="/timeline">/timeline</a> — flight-recorder window (instance/from/to query params)</li>
<li><a href="/bottleneck">/bottleneck</a> — ranked binding-constraint verdict with evidence</li>
</ul></body></html>
`)
}

// promSample is one series of a family for one instance: an optional
// label value and the already formatted sample value.
type promSample struct{ label, value string }

// promFamily is one /metrics family: its exposition name, type and HELP
// prose (empty: # TYPE only), and the instance's series in a snapshot.
// A family that returns no series for any instance is not printed.
type promFamily struct {
	name, kind, help string
	series           func(sn *pipeline.Snapshot) []promSample
}

// gSeries renders a value with %g; dSeries renders one with %d.
func gSeries(f func(sn *pipeline.Snapshot) float64) func(*pipeline.Snapshot) []promSample {
	return func(sn *pipeline.Snapshot) []promSample { return []promSample{{value: fmt.Sprintf("%g", f(sn))}} }
}

func dSeries(f func(sn *pipeline.Snapshot) int64) func(*pipeline.Snapshot) []promSample {
	return func(sn *pipeline.Snapshot) []promSample { return []promSample{{value: fmt.Sprintf("%d", f(sn))}} }
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// dispositionsByName lists every disposition sorted by its label, the
// order frames_disposed_total prints its series in.
var dispositionsByName = func() []pipeline.Disposition {
	ds := make([]pipeline.Disposition, pipeline.NumDispositions)
	for i := range ds {
		ds[i] = pipeline.Disposition(i)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i].String() < ds[j].String() })
	return ds
}()

// promFamilies is the whole /metrics exposition, in print order: every
// family is a fixed function of the typed pipeline.Snapshot.
var promFamilies = []promFamily{
	{"ffsva_tyolo_fps", "gauge", "T-YOLO decided-frame throughput in frames per second.",
		gSeries(func(sn *pipeline.Snapshot) float64 { return sn.TYoloRate })},
	{"ffsva_frame_latency_count", "gauge", "",
		gSeries(func(sn *pipeline.Snapshot) float64 { return float64(sn.Latency.Count) })},
	{"ffsva_frame_latency_mean_seconds", "gauge", "",
		gSeries(func(sn *pipeline.Snapshot) float64 { return sn.Latency.Mean.Seconds() })},
	{"ffsva_frame_latency_p50_seconds", "gauge", "",
		gSeries(func(sn *pipeline.Snapshot) float64 { return sn.Latency.P50.Seconds() })},
	{"ffsva_frame_latency_p95_seconds", "gauge", "",
		gSeries(func(sn *pipeline.Snapshot) float64 { return sn.Latency.P95.Seconds() })},
	{"ffsva_frame_latency_p99_seconds", "gauge", "",
		gSeries(func(sn *pipeline.Snapshot) float64 { return sn.Latency.P99.Seconds() })},
	{"ffsva_frame_latency_max_seconds", "gauge", "",
		gSeries(func(sn *pipeline.Snapshot) float64 { return sn.Latency.Max.Seconds() })},
	{"ffsva_frames_ingested_total", "counter", "Frames ingested across all streams.",
		gSeries(func(sn *pipeline.Snapshot) float64 { return float64(sn.Ingested) })},
	{"ffsva_frames_disposed_total", "counter", "Frames leaving the cascade, by disposition label.",
		func(sn *pipeline.Snapshot) []promSample {
			var out []promSample
			for _, disp := range dispositionsByName {
				if n := sn.Drops[disp]; n > 0 {
					out = append(out, promSample{disp.String(), fmt.Sprintf("%g", float64(n))})
				}
			}
			return out
		}},
	{"ffsva_frames_orphaned_total", "counter", "Frames missing a terminal disposition at drain.",
		gSeries(func(sn *pipeline.Snapshot) float64 { return float64(sn.Orphaned) })},
	{"ffsva_ref_canvases_total", "counter", "Consolidated canvases submitted to the reference tier.",
		gSeries(func(sn *pipeline.Snapshot) float64 { return float64(sn.RefCanvases) })},
	{"ffsva_snm_batch_size_count", "gauge", "",
		gSeries(func(sn *pipeline.Snapshot) float64 { return float64(sn.SNMBatchCount) })},
	{"ffsva_snm_batch_size_mean", "gauge", "",
		gSeries(func(sn *pipeline.Snapshot) float64 { return sn.SNMBatchMean })},
	{"ffsva_snm_batch_size_max", "gauge", "",
		gSeries(func(sn *pipeline.Snapshot) float64 { return float64(sn.SNMBatchMax) })},
	{"ffsva_faults_injected_total", "counter", "Faults injected by the fault plan.",
		gSeries(func(sn *pipeline.Snapshot) float64 { return float64(sn.FaultsInjected) })},
	{"ffsva_retries_total", "counter", "Frame retries after recoverable decode faults.",
		gSeries(func(sn *pipeline.Snapshot) float64 { return float64(sn.Retries) })},
	{"ffsva_shed_frames_total", "counter", "Frames shed by the overload bypass.",
		gSeries(func(sn *pipeline.Snapshot) float64 { return float64(sn.Drops[pipeline.DropShed]) })},
	{"ffsva_in_flight", "gauge", "Frames ingested but not yet decided.",
		dSeries(func(sn *pipeline.Snapshot) int64 { return sn.InFlight })},
	{"ffsva_live_streams", "gauge", "Streams still producing frames.",
		dSeries(func(sn *pipeline.Snapshot) int64 { return int64(sn.LiveStreams) })},
	{"ffsva_worst_backlog", "gauge", "Deepest per-stream queue backlog.",
		dSeries(func(sn *pipeline.Snapshot) int64 { return int64(sn.WorstBacklog) })},
	{"ffsva_worst_lag_seconds", "gauge", "Largest per-stream decision lag in seconds.",
		gSeries(func(sn *pipeline.Snapshot) float64 { return sn.WorstLag.Seconds() })},
	{"ffsva_overloaded", "gauge", "1 while any stage queue sits at capacity.",
		dSeries(func(sn *pipeline.Snapshot) int64 { return b2i(sn.Overloaded) })},
	{"ffsva_up", "gauge", "0 once the instance has crashed.",
		dSeries(func(sn *pipeline.Snapshot) int64 { return 1 - b2i(sn.Crashed) })},
}

// handleMetrics writes the Prometheus text exposition grouped by metric
// family: one # HELP (where prose exists) and # TYPE line per family,
// followed by every instance's series. Families appear in first-seen
// order over sorted instance ids and the table: table order, except
// that a family only a later instance reports yet (frames_disposed_total
// before the lower instances decide a frame) follows those already
// seen. Identical pushed state scrapes byte-identically.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	snaps, ids := s.snapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	lines := make([][]string, len(promFamilies))
	var order []int
	for _, id := range ids {
		sn := snaps[id]
		for i, f := range promFamilies {
			for _, smp := range f.series(&sn) {
				if lines[i] == nil {
					order = append(order, i)
				}
				series := fmt.Sprintf(`%s{instance="%d"}`, f.name, id)
				if smp.label != "" {
					series = fmt.Sprintf(`%s{instance="%d",label=%q}`, f.name, id, smp.label)
				}
				lines[i] = append(lines[i], series+" "+smp.value)
			}
		}
	}
	for _, i := range order {
		f := promFamilies[i]
		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
		for _, line := range lines[i] {
			fmt.Fprintln(w, line)
		}
	}
}

func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	snaps, ids := s.snapshot()
	out := make(map[string]pipeline.Snapshot, len(snaps))
	for _, id := range ids {
		out[fmt.Sprintf("%d", id)] = snaps[id]
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	if err := enc.Encode(out); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handleHealthz reports liveness from the pushed snapshots: 503 until
// the first push, 503 when every instance has crashed, and 503 when a
// running instance's heartbeat has gone stale (older than three
// intervals at snapshot time — the same staleness rule the cluster
// manager's failure detector uses). Both clock values come from inside
// one snapshot, so the check is wall-clock-free.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	snaps, ids := s.snapshot()
	if len(ids) == 0 {
		http.Error(w, "no snapshot yet", http.StatusServiceUnavailable)
		return
	}
	alive := 0
	var stale []string
	for _, id := range ids {
		sn := snaps[id]
		if sn.Crashed {
			continue
		}
		alive++
		if sn.HeartbeatEvery > 0 && !sn.Finished && sn.Heartbeat > 0 &&
			sn.At-sn.Heartbeat > 3*sn.HeartbeatEvery {
			stale = append(stale, fmt.Sprintf("instance %d: heartbeat %v behind",
				id, (sn.At-sn.Heartbeat).Round(time.Millisecond)))
		}
	}
	if alive == 0 {
		http.Error(w, "all instances crashed", http.StatusServiceUnavailable)
		return
	}
	if len(stale) > 0 {
		http.Error(w, strings.Join(stale, "\n"), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "ok: %d/%d instances alive\n", alive, len(ids))
}

func (s *Server) handleTracez(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := s.tr.WriteTracez(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// parseWindow reads the shared /timeline and /bottleneck query
// parameters: instance (default -1 = all), from and to (Go duration
// strings, e.g. "1.5s"; to defaults to the newest tick).
func parseWindow(r *http.Request) (instance int, from, to time.Duration, err error) {
	instance = -1
	q := r.URL.Query()
	if v := q.Get("instance"); v != "" {
		instance, err = strconv.Atoi(v)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("instance: %w", err)
		}
	}
	if v := q.Get("from"); v != "" {
		from, err = time.ParseDuration(v)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("from: %w", err)
		}
	}
	if v := q.Get("to"); v != "" {
		to, err = time.ParseDuration(v)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("to: %w", err)
		}
	}
	return instance, from, to, nil
}

func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	rec := s.timeline()
	if rec == nil {
		http.Error(w, "timeline recorder not attached", http.StatusServiceUnavailable)
		return
	}
	instance, from, to, err := parseWindow(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(rec.Window(instance, from, to)); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// bottleneckDoc is the /bottleneck response: the ranked verdict plus
// its one-line rendering.
type bottleneckDoc struct {
	timeline.Verdict
	Summary string `json:"summary"`
}

func (s *Server) handleBottleneck(w http.ResponseWriter, r *http.Request) {
	rec := s.timeline()
	if rec == nil {
		http.Error(w, "timeline recorder not attached", http.StatusServiceUnavailable)
		return
	}
	instance, from, to, err := parseWindow(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	v := rec.Attribute(instance, from, to)
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(bottleneckDoc{Verdict: v, Summary: v.Summary()}); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Package timeline is FFS-VA's flight recorder: a fixed-capacity ring
// of deterministic ticks sampled from pipeline.Snapshot plus the
// tracer's cumulative per-stage span loads, with per-stage, per-device,
// and per-tenant rollups. On top of the ring sits a USE-style
// bottleneck attribution engine (attrib.go): per window, each tier of
// the cascade (decode / SDD / SNM / T-YOLO / reference) is classified
// by utilization (device busy fraction), saturation (queue fill plus
// wait-share of frame latency), and errors (drops, sheds, retries),
// and the ranked verdict names the binding constraint with its
// evidence — the question every scaling experiment in the ROADMAP
// otherwise answers by a human eyeballing benchmark deltas.
//
// Determinism: the recorder never reads the wall clock. Every tick
// carries only virtual-clock (or real-clock, under -real) values taken
// from the snapshot that produced it, so two identically seeded runs
// record byte-identical timelines. Event-triggered dumps (dump.go)
// freeze the window around fault/overload/migration instants to JSONL
// files with clock-derived names.
//
// The recorder sits outside the simulation like the obs server does:
// the run's monitor process pushes snapshots in via Observe, and the
// tracer's instant hook pushes point events in via RecordEvent. Both
// entry points are safe from any goroutine or clock process.
package timeline

import (
	"sort"
	"strings"
	"sync"
	"time"

	"ffsva/internal/pipeline"
	"ffsva/internal/trace"
)

// Options tunes a Recorder. Zero fields take defaults.
type Options struct {
	// Capacity bounds the tick ring (default 4096 ticks, shared across
	// instances; the oldest ticks are overwritten).
	Capacity int
	// MaxEvents bounds the point-event log (default 1024; overflow is
	// counted, not kept — dump triggers still fire).
	MaxEvents int
	// DumpDir, when non-empty, enables event-triggered flight-recorder
	// dumps: fault, overload, and migration events freeze the
	// surrounding window of ticks to a JSONL file in this directory.
	DumpDir string
	// DumpPostTicks is how many more ticks a triggered dump waits for
	// before freezing, so the file shows the aftermath (default 4).
	DumpPostTicks int
	// MaxDumps bounds the number of dump files per run (default 16).
	MaxDumps int
	// Tracer, when non-nil, supplies the per-stage span loads sampled
	// into every tick, receives the recorder's counter tracks, and has
	// its instant events subscribed as timeline events and dump
	// triggers. BindTracer attaches it after construction.
	Tracer *trace.Tracer
}

func (o *Options) fill() {
	if o.Capacity <= 0 {
		o.Capacity = 4096
	}
	if o.MaxEvents <= 0 {
		o.MaxEvents = 1024
	}
	if o.DumpPostTicks <= 0 {
		o.DumpPostTicks = 4
	}
	if o.MaxDumps <= 0 {
		o.MaxDumps = 16
	}
}

// QueueUse is one queue family's occupancy at tick time (depths and
// capacities summed across a tier's per-stream queues).
type QueueUse struct {
	Depth   int   `json:"depth"`
	Cap     int   `json:"cap"`
	Blocked int64 `json:"blocked"`
}

// DeviceUse is one device's cumulative accounting at tick time; Busy is
// cumulative since the run started, so window deltas yield windowed
// busy fractions.
type DeviceUse struct {
	Name         string        `json:"name"`
	Kind         string        `json:"kind"`
	Slots        int           `json:"slots"`
	Busy         time.Duration `json:"busy"`
	BusyFraction float64       `json:"busy_fraction"`
}

// TenantUse is one tenant's rollup at tick time, aggregated from the
// streams registered to it via SetTenant.
type TenantUse struct {
	Tenant   string `json:"tenant"`
	Streams  int    `json:"streams"`
	Ingested int64  `json:"ingested"`
	Decided  int64  `json:"decided"`
	Backlog  int    `json:"backlog"`
}

// Tick is one flight-recorder sample: the snapshot's control signals,
// queue occupancy by tier, cumulative device accounting, cumulative
// per-stage span loads from the tracer, and per-tenant rollups. All
// cumulative fields difference cleanly across a window.
type Tick struct {
	Seq      int64         `json:"seq"`
	Instance int           `json:"instance"`
	At       time.Duration `json:"at"`

	Ingested    int64                           `json:"ingested"`
	Decided     int64                           `json:"decided"`
	InFlight    int64                           `json:"in_flight"`
	Drops       [pipeline.NumDispositions]int64 `json:"drops"`
	LiveStreams int                             `json:"live_streams"`
	Overloaded  bool                            `json:"overloaded"`
	Finished    bool                            `json:"finished"`
	Crashed     bool                            `json:"crashed,omitempty"`

	TYoloRate    float64       `json:"tyolo_fps"`
	WorstLag     time.Duration `json:"worst_lag"`
	WorstBacklog int           `json:"worst_backlog"`

	SDDQ QueueUse `json:"sdd_q"`
	SNMQ QueueUse `json:"snm_q"`
	TYQ  QueueUse `json:"ty_q"`
	RefQ QueueUse `json:"ref_q"`

	Devices []DeviceUse                    `json:"devices"`
	Stages  [trace.NumKinds]trace.KindLoad `json:"stages"`
	Tenants []TenantUse                    `json:"tenants,omitempty"`

	Retries        int64 `json:"retries"`
	FaultsInjected int64 `json:"faults_injected"`
	ShedFrames     int64 `json:"shed_frames"`
}

// Event is one point event on the timeline: a fault manifesting, an
// overload transition, a cluster decision, a feedback throttle.
type Event struct {
	Name     string        `json:"name"`
	Cat      string        `json:"cat"`
	Instance int           `json:"instance"`
	At       time.Duration `json:"at"`
}

// Recorder is the flight recorder. Create with New, feed with Observe
// (from a pipeline monitor or the cluster manager's OnSnapshot) and
// RecordEvent (wired automatically from the tracer by BindTracer), and
// Close when the run ends to flush pending dumps.
type Recorder struct {
	opt Options

	mu         sync.Mutex
	tr         *trace.Tracer
	ticks      []Tick // ring, capacity opt.Capacity
	next       int    // ring write cursor once full
	seq        int64  // total ticks observed
	events     []Event
	eventDrop  int64
	tenants    map[int]string // stream ID -> tenant name
	overloaded map[int]bool   // per-instance overload latch

	dump dumper
}

// New creates a Recorder. If opt.Tracer is set it is bound immediately
// (equivalent to calling BindTracer).
func New(opt Options) *Recorder {
	opt.fill()
	r := &Recorder{
		opt:        opt,
		tenants:    map[int]string{},
		overloaded: map[int]bool{},
	}
	r.dump.init(opt)
	if opt.Tracer != nil {
		r.BindTracer(opt.Tracer)
	}
	return r
}

// BindTracer attaches the tracer: per-stage span loads are sampled into
// every subsequent tick, the recorder's counter tracks are pushed into
// the trace export, and the tracer's instant events (feedback
// throttles, faults, cluster decisions) flow in as timeline events and
// dump triggers. A nil tracer or a second bind is a no-op.
func (r *Recorder) BindTracer(tr *trace.Tracer) {
	if tr == nil {
		return
	}
	r.mu.Lock()
	if r.tr != nil {
		r.mu.Unlock()
		return
	}
	r.tr = tr
	r.mu.Unlock()
	tr.SetOnInstant(func(in trace.Instant) {
		r.RecordEvent(Event{Name: in.Name, Cat: in.Cat, Instance: in.Instance, At: in.At})
	})
}

// SetTenant registers a stream's tenant for the per-tenant rollups
// (the cluster wiring calls it per arrival; unregistered streams roll
// up under the unnamed default tenant).
func (r *Recorder) SetTenant(streamID int, tenant string) {
	r.mu.Lock()
	r.tenants[streamID] = tenant
	r.mu.Unlock()
}

// Observe records one tick from an instance snapshot. It runs on a
// clock process (the pipeline monitor or the cluster manager), so it
// stays cheap: field copies, one pass over the snapshot's streams, and
// a lock-and-read of the tracer's cumulative loads — no quantiles, no
// allocation beyond the tick itself.
func (r *Recorder) Observe(instance int, sn pipeline.Snapshot) {
	// Tracer reads happen before r.mu so the recorder's lock never
	// nests inside or around the tracer's.
	var stages [trace.NumKinds]trace.KindLoad
	r.mu.Lock()
	tr := r.tr
	r.mu.Unlock()
	if tr != nil {
		stages = tr.KindLoads(instance)
	}

	t := Tick{
		Instance:       instance,
		At:             sn.At,
		Ingested:       sn.Ingested,
		Decided:        sn.Decided,
		InFlight:       sn.InFlight,
		Drops:          sn.Drops,
		LiveStreams:    sn.LiveStreams,
		Overloaded:     sn.Overloaded,
		Finished:       sn.Finished,
		Crashed:        sn.Crashed,
		TYoloRate:      sn.TYoloRate,
		WorstLag:       sn.WorstLag,
		WorstBacklog:   sn.WorstBacklog,
		Retries:        sn.Retries,
		FaultsInjected: sn.FaultsInjected,
		ShedFrames:     sn.Drops[pipeline.DropShed],
		Stages:         stages,
	}
	for _, ss := range sn.Streams {
		t.SDDQ.Depth += ss.SDDQ.Depth
		t.SDDQ.Cap += ss.SDDQ.Cap
		t.SDDQ.Blocked += ss.SDDQ.BlockedPuts
		t.SNMQ.Depth += ss.SNMQ.Depth
		t.SNMQ.Cap += ss.SNMQ.Cap
		t.SNMQ.Blocked += ss.SNMQ.BlockedPuts
		t.TYQ.Depth += ss.TYQ.Depth
		t.TYQ.Cap += ss.TYQ.Cap
		t.TYQ.Blocked += ss.TYQ.BlockedPuts
	}
	t.RefQ = QueueUse{Depth: sn.RefQ.Depth, Cap: sn.RefQ.Cap, Blocked: sn.RefQ.BlockedPuts}
	t.Devices = make([]DeviceUse, 0, len(sn.Devices))
	for _, d := range sn.Devices {
		t.Devices = append(t.Devices, DeviceUse{
			Name: d.Name, Kind: d.Kind, Slots: d.Slots,
			Busy: d.Busy, BusyFraction: d.BusyFraction,
		})
	}
	r.mu.Lock()
	t.Tenants = r.tenantRollupLocked(sn)
	t.Seq = r.seq
	r.seq++
	if len(r.ticks) < r.opt.Capacity {
		r.ticks = append(r.ticks, t)
	} else {
		r.ticks[r.next] = t
		r.next = (r.next + 1) % r.opt.Capacity
	}
	// Overload latch: a false->true transition is itself a trigger
	// event, so overload windows get frozen even without a tracer.
	var overloadEv *Event
	if sn.Overloaded && !r.overloaded[instance] {
		overloadEv = &Event{Name: "overload engaged", Cat: "overload", Instance: instance, At: sn.At}
	}
	r.overloaded[instance] = sn.Overloaded
	jobs := r.dump.onTick(r, sn.Finished)
	r.mu.Unlock()

	if overloadEv != nil {
		r.RecordEvent(*overloadEv)
	}
	r.dump.submit(jobs)

	// Counter tracks for the Perfetto export: one point per signal per
	// tick, after r.mu is released.
	if tr != nil {
		tr.Counter("timeline: ref-q depth", instance, sn.At, float64(t.RefQ.Depth))
		tr.Counter("timeline: snm-q depth", instance, sn.At, float64(t.SNMQ.Depth))
		tr.Counter("timeline: t-yolo-q depth", instance, sn.At, float64(t.TYQ.Depth))
		tr.Counter("timeline: backlog", instance, sn.At, float64(sn.WorstBacklog))
		tr.Counter("timeline: in-flight", instance, sn.At, float64(sn.InFlight))
		tr.Counter("timeline: t-yolo fps", instance, sn.At, sn.TYoloRate)
		for _, d := range t.Devices {
			tr.Counter("timeline: busy "+d.Name, instance, sn.At, d.BusyFraction)
		}
	}
}

// tenantRollupLocked aggregates the snapshot's streams by registered
// tenant, sorted by tenant name for deterministic serialization;
// callers hold r.mu. Nil when no tenant was ever registered (the
// single-tenant case pays nothing).
func (r *Recorder) tenantRollupLocked(sn pipeline.Snapshot) []TenantUse {
	if len(r.tenants) == 0 {
		return nil
	}
	byName := map[string]*TenantUse{}
	for _, ss := range sn.Streams {
		name := r.tenants[ss.ID]
		tu := byName[name]
		if tu == nil {
			tu = &TenantUse{Tenant: name}
			byName[name] = tu
		}
		tu.Streams++
		tu.Ingested += ss.Ingested
		tu.Decided += ss.Decided
		tu.Backlog += ss.Backlog
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]TenantUse, 0, len(names))
	for _, name := range names {
		out = append(out, *byName[name])
	}
	return out
}

// RecordEvent appends a point event to the bounded log and, when the
// event is a dump trigger (a fault, an overload transition, or a
// cluster migration/failure), arms a flight-recorder dump. Safe from
// any goroutine.
func (r *Recorder) RecordEvent(ev Event) {
	r.mu.Lock()
	if len(r.events) < r.opt.MaxEvents {
		r.events = append(r.events, ev)
	} else {
		r.eventDrop++
	}
	if isDumpTrigger(ev) {
		r.dump.arm(ev)
	}
	r.mu.Unlock()
}

// isDumpTrigger classifies the events that freeze a dump window: every
// fault manifestation, every overload engagement, and the disruptive
// cluster decisions (migration, failure, recovery). Admissions and
// feedback throttles are recorded but do not trigger dumps.
func isDumpTrigger(ev Event) bool {
	switch ev.Cat {
	case "fault", "overload":
		return true
	case "cluster":
		return strings.HasPrefix(ev.Name, "migrate") ||
			strings.HasPrefix(ev.Name, "recover") ||
			strings.Contains(ev.Name, "failed")
	}
	return false
}

// orderedTicksLocked returns the ring's ticks oldest-first; callers
// hold r.mu.
func (r *Recorder) orderedTicksLocked() []Tick {
	out := make([]Tick, 0, len(r.ticks))
	out = append(out, r.ticks[r.next:]...)
	out = append(out, r.ticks[:r.next]...)
	return out
}

// TickCount returns how many ticks have been observed in total (the
// ring retains the most recent Options.Capacity of them).
func (r *Recorder) TickCount() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Close flushes any pending dump and joins the dump-writer goroutine.
// It returns the first dump write error, if any. Safe to call once the
// run is over; a Recorder without a DumpDir closes instantly.
func (r *Recorder) Close() error {
	r.mu.Lock()
	jobs := r.dump.flushLocked(r)
	r.mu.Unlock()
	r.dump.submit(jobs)
	return r.dump.close()
}

// Dumps returns the paths of the dump files written so far.
func (r *Recorder) Dumps() []string {
	return r.dump.written()
}

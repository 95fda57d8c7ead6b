package timeline

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ffsva/internal/pipeline"
	"ffsva/internal/trace"
)

// snapAt builds a minimal snapshot for tick tests.
func snapAt(at time.Duration) pipeline.Snapshot {
	return pipeline.Snapshot{
		At:       at,
		Ingested: int64(at / time.Millisecond),
		Decided:  int64(at / (2 * time.Millisecond)),
		Streams: []pipeline.StreamSnapshot{
			{
				ID:       0,
				Ingested: int64(at / time.Millisecond),
				SDDQ:     pipeline.QueueSnapshot{Depth: 1, Cap: 10},
				SNMQ:     pipeline.QueueSnapshot{Depth: 2, Cap: 10, BlockedPuts: 3},
				TYQ:      pipeline.QueueSnapshot{Depth: 0, Cap: 2},
			},
		},
		RefQ: pipeline.QueueSnapshot{Depth: 4, Cap: 8},
		Devices: []pipeline.DeviceSnapshot{
			{Name: "cpu", Kind: "cpu", Slots: 16, Busy: at / 2, BusyFraction: 0.5},
			{Name: "gpu0", Kind: "gpu", Slots: 1, Busy: at / 4, BusyFraction: 0.25},
			{Name: "gpu1", Kind: "gpu", Slots: 1, Busy: at, BusyFraction: 1.0},
		},
	}
}

// TestRingWraparound fills a tiny ring past capacity and checks the
// retained ticks are the newest, oldest first, with monotonic seqs.
func TestRingWraparound(t *testing.T) {
	r := New(Options{Capacity: 4})
	for i := 1; i <= 6; i++ {
		r.Observe(0, snapAt(time.Duration(i)*time.Second))
	}
	if got := r.TickCount(); got != 6 {
		t.Fatalf("TickCount = %d, want 6", got)
	}
	ticks := r.Query(-1, 0, 0)
	if len(ticks) != 4 {
		t.Fatalf("retained %d ticks, want 4", len(ticks))
	}
	for i, tk := range ticks {
		wantAt := time.Duration(i+3) * time.Second
		if tk.At != wantAt {
			t.Errorf("tick %d At = %v, want %v", i, tk.At, wantAt)
		}
		if tk.Seq != int64(i+2) {
			t.Errorf("tick %d Seq = %d, want %d", i, tk.Seq, i+2)
		}
	}
	// Window query trims by time.
	mid := r.Query(-1, 4*time.Second, 5*time.Second)
	if len(mid) != 2 || mid[0].At != 4*time.Second || mid[1].At != 5*time.Second {
		t.Fatalf("windowed query wrong: %+v", mid)
	}
}

// TestTickSampling checks one tick captures queue occupancy by tier,
// device accounting, and the snapshot's fault counters.
func TestTickSampling(t *testing.T) {
	r := New(Options{})
	sn := snapAt(2 * time.Second)
	sn.Retries = 7
	sn.FaultsInjected = 2
	sn.Drops[pipeline.DropShed] = 11
	r.Observe(0, sn)
	tk := r.Query(0, 0, 0)[0]
	if tk.SNMQ.Depth != 2 || tk.SNMQ.Blocked != 3 || tk.RefQ.Depth != 4 || tk.RefQ.Cap != 8 {
		t.Fatalf("queue sampling wrong: %+v", tk)
	}
	if len(tk.Devices) != 3 || tk.Devices[2].Name != "gpu1" || tk.Devices[2].Busy != 2*time.Second {
		t.Fatalf("device sampling wrong: %+v", tk.Devices)
	}
	if tk.Retries != 7 || tk.FaultsInjected != 2 || tk.ShedFrames != 11 {
		t.Fatalf("fault counters not sampled: %+v", tk)
	}
}

// TestTenantRollup registers tenants and checks per-tenant aggregation
// is present, aggregated, and sorted by name.
func TestTenantRollup(t *testing.T) {
	r := New(Options{})
	r.SetTenant(0, "globex")
	r.SetTenant(1, "acme")
	r.SetTenant(2, "acme")
	sn := snapAt(time.Second)
	sn.Streams = []pipeline.StreamSnapshot{
		{ID: 0, Ingested: 10, Decided: 5, Backlog: 1},
		{ID: 1, Ingested: 20, Decided: 15, Backlog: 2},
		{ID: 2, Ingested: 30, Decided: 25, Backlog: 3},
	}
	r.Observe(0, sn)
	tk := r.Query(0, 0, 0)[0]
	if len(tk.Tenants) != 2 {
		t.Fatalf("tenant rollup count = %d, want 2: %+v", len(tk.Tenants), tk.Tenants)
	}
	if tk.Tenants[0].Tenant != "acme" || tk.Tenants[0].Streams != 2 ||
		tk.Tenants[0].Ingested != 50 || tk.Tenants[0].Backlog != 5 {
		t.Fatalf("acme rollup wrong: %+v", tk.Tenants[0])
	}
	if tk.Tenants[1].Tenant != "globex" || tk.Tenants[1].Ingested != 10 {
		t.Fatalf("globex rollup wrong: %+v", tk.Tenants[1])
	}
}

// TestEventLogBounded checks the point-event log keeps MaxEvents and
// counts overflow instead of growing.
func TestEventLogBounded(t *testing.T) {
	r := New(Options{MaxEvents: 2})
	for i := 0; i < 5; i++ {
		r.RecordEvent(Event{Name: "e", Cat: "feedback", At: time.Duration(i) * time.Second})
	}
	doc := r.Window(-1, 0, 0)
	if len(doc.Events) != 2 || doc.DroppedEvents != 3 {
		t.Fatalf("event log: %d kept, %d dropped; want 2/3", len(doc.Events), doc.DroppedEvents)
	}
}

// TestOverloadLatch checks a false->true overload transition records
// one event (not one per overloaded tick).
func TestOverloadLatch(t *testing.T) {
	r := New(Options{})
	sn := snapAt(time.Second)
	r.Observe(0, sn)
	sn.Overloaded = true
	sn.At = 2 * time.Second
	r.Observe(0, sn)
	sn.At = 3 * time.Second
	r.Observe(0, sn) // still overloaded: no second event
	sn.Overloaded = false
	sn.At = 4 * time.Second
	r.Observe(0, sn)
	sn.Overloaded = true
	sn.At = 5 * time.Second
	r.Observe(0, sn) // re-engaged: second event
	evs := r.EventLog(-1, 0, 0)
	var overloads []Event
	for _, ev := range evs {
		if ev.Cat == "overload" {
			overloads = append(overloads, ev)
		}
	}
	if len(overloads) != 2 || overloads[0].At != 2*time.Second || overloads[1].At != 5*time.Second {
		t.Fatalf("overload events wrong: %+v", overloads)
	}
}

// TestTracerEventsFlowIn binds a tracer and checks instants become
// timeline events.
func TestTracerEventsFlowIn(t *testing.T) {
	tr := trace.New(trace.Options{})
	r := New(Options{Tracer: tr})
	tr.Instant("decode fault stream 0", "fault", 0, 700*time.Millisecond)
	evs := r.EventLog(0, 0, 0)
	if len(evs) != 1 || evs[0].Cat != "fault" || evs[0].At != 700*time.Millisecond {
		t.Fatalf("tracer instant did not reach the timeline: %+v", evs)
	}
}

// TestDumpTriggerWritesFile arms a dump with a fault event, feeds the
// aftermath ticks, and checks the frozen window lands as JSONL with the
// trigger line first.
func TestDumpTriggerWritesFile(t *testing.T) {
	dir := t.TempDir()
	r := New(Options{DumpDir: dir, DumpPostTicks: 2})
	r.Observe(0, snapAt(1*time.Second))
	r.RecordEvent(Event{Name: "decode fault stream 0", Cat: "fault", Instance: 0, At: 1500 * time.Millisecond})
	r.Observe(0, snapAt(2*time.Second))
	if got := r.Dumps(); len(got) != 0 {
		t.Fatalf("dump froze before the aftermath window: %v", got)
	}
	r.Observe(0, snapAt(3*time.Second))
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	dumps := r.Dumps()
	if len(dumps) != 1 {
		t.Fatalf("dumps = %v, want exactly one", dumps)
	}
	if want := filepath.Join(dir, "dump-001-fault-1500ms.jsonl"); dumps[0] != want {
		t.Fatalf("dump path = %q, want %q (deterministic clock-derived name)", dumps[0], want)
	}
	f, err := os.Open(dumps[0])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []map[string]any
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("dump line not JSON: %v", err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 4 { // 1 trigger + 3 ticks
		t.Fatalf("dump has %d lines, want 4", len(lines))
	}
	if lines[0]["type"] != "trigger" || lines[0]["cat"] != "fault" {
		t.Fatalf("first dump line is not the trigger: %v", lines[0])
	}
	for _, l := range lines[1:] {
		if l["type"] != "tick" {
			t.Fatalf("non-tick line after the trigger: %v", l)
		}
	}
}

// TestDumpFlushOnClose checks Close freezes a still-pending dump
// instead of losing it, and that MaxDumps bounds the files.
func TestDumpFlushOnClose(t *testing.T) {
	dir := t.TempDir()
	r := New(Options{DumpDir: dir, DumpPostTicks: 50, MaxDumps: 1})
	r.Observe(0, snapAt(time.Second))
	r.RecordEvent(Event{Name: "overload engaged", Cat: "overload", At: time.Second})
	r.Observe(0, snapAt(2*time.Second))
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if dumps := r.Dumps(); len(dumps) != 1 {
		t.Fatalf("pending dump not flushed on Close: %v", dumps)
	}
	// A fresh recorder with MaxDumps 1 ignores a second trigger.
	r2 := New(Options{DumpDir: dir, DumpPostTicks: 1, MaxDumps: 1})
	r2.Observe(0, snapAt(time.Second))
	r2.RecordEvent(Event{Name: "a", Cat: "fault", At: time.Second})
	r2.Observe(0, snapAt(2*time.Second))
	r2.RecordEvent(Event{Name: "b", Cat: "fault", At: 3 * time.Second})
	r2.Observe(0, snapAt(4*time.Second))
	if err := r2.Close(); err != nil {
		t.Fatal(err)
	}
	if dumps := r2.Dumps(); len(dumps) != 1 {
		t.Fatalf("MaxDumps not enforced: %v", dumps)
	}
}

// TestDumpTriggerClassification pins which events arm dumps.
func TestDumpTriggerClassification(t *testing.T) {
	cases := []struct {
		ev   Event
		want bool
	}{
		{Event{Name: "decode fault", Cat: "fault"}, true},
		{Event{Name: "overload engaged", Cat: "overload"}, true},
		{Event{Name: "migrate stream 3 -> 1", Cat: "cluster"}, true},
		{Event{Name: "recover stream 2 -> 0", Cat: "cluster"}, true},
		{Event{Name: "instance 1 failed", Cat: "cluster"}, true},
		{Event{Name: "admit stream 4", Cat: "cluster"}, false},
		{Event{Name: "scale-up instance 2", Cat: "cluster"}, false},
		{Event{Name: "snm batch throttle", Cat: "feedback"}, false},
	}
	for _, c := range cases {
		if got := isDumpTrigger(c.ev); got != c.want {
			t.Errorf("isDumpTrigger(%q/%s) = %v, want %v", c.ev.Name, c.ev.Cat, got, c.want)
		}
	}
}

// TestWindowDocDeterministic serializes the same recorded state twice
// and checks the JSON is byte-identical (the /timeline contract).
func TestWindowDocDeterministic(t *testing.T) {
	build := func() *Recorder {
		r := New(Options{})
		r.SetTenant(0, "acme")
		for i := 1; i <= 3; i++ {
			r.Observe(0, snapAt(time.Duration(i)*time.Second))
		}
		r.RecordEvent(Event{Name: "x", Cat: "feedback", At: time.Second})
		return r
	}
	a, err := json.Marshal(build().Window(-1, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(build().Window(-1, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("WindowDoc JSON differs across identical recorders:\n%s\n%s", a, b)
	}
	if !strings.Contains(string(a), `"tenants"`) {
		t.Fatalf("WindowDoc missing tenant rollups: %s", a)
	}
}

package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"ffsva/internal/pipeline"
	"ffsva/internal/timeline"
)

// fuzzRecorder is a small seeded flight recorder: two instances ticking
// every 250ms for two seconds with growing load, plus one fault event.
func fuzzRecorder() *timeline.Recorder {
	rec := timeline.New(timeline.Options{Capacity: 32})
	for i := 1; i <= 8; i++ {
		at := time.Duration(i) * 250 * time.Millisecond
		for inst := 0; inst < 2; inst++ {
			n := int64(i * (10 + inst))
			rec.Observe(inst, pipeline.Snapshot{
				At: at, Ingested: n, Decided: n - 2, InFlight: 2,
				Drops:      [pipeline.NumDispositions]int64{pipeline.DropSDD: n - 4, pipeline.Detected: 2},
				Overloaded: i > 5,
				Streams: []pipeline.StreamSnapshot{{
					ID:   inst,
					SDDQ: pipeline.QueueSnapshot{Depth: i, Cap: 10},
					SNMQ: pipeline.QueueSnapshot{Depth: i % 3, Cap: 4, BlockedPuts: int64(i)},
					TYQ:  pipeline.QueueSnapshot{Depth: 1, Cap: 2},
				}},
				RefQ: pipeline.QueueSnapshot{Depth: i % 5, Cap: 8},
				Devices: []pipeline.DeviceSnapshot{
					{Name: "cpu", Kind: "cpu", Slots: 16, Busy: at / 2, BusyFraction: 0.5},
					{Name: "gpu0", Kind: "gpu", Slots: 1, Busy: at / 4, BusyFraction: 0.25},
					{Name: "gpu1", Kind: "gpu", Slots: 1, Busy: at, BusyFraction: 1},
				},
			})
		}
	}
	rec.RecordEvent(timeline.Event{Name: "fault gpu1", Cat: "fault", Instance: 1, At: time.Second})
	return rec
}

// FuzzWindowQuery drives /timeline and /bottleneck in-process (no
// socket) with arbitrary instance, from and to query values. Query
// parameters cross the endpoint's trust boundary, so whatever arrives
// must answer 200 with valid JSON or 400 — never a 5xx, never a panic.
// The seed corpus in testdata/fuzz/FuzzWindowQuery (well-formed,
// malformed, inverted and overflowing windows) replays under go test.
func FuzzWindowQuery(f *testing.F) {
	s := NewServer("", nil)
	s.SetTimeline(fuzzRecorder())
	h := s.handler()
	f.Fuzz(func(t *testing.T, instance, from, to string) {
		q := url.Values{}
		for _, kv := range [][2]string{{"instance", instance}, {"from", from}, {"to", to}} {
			if kv[1] != "" {
				q.Set(kv[0], kv[1])
			}
		}
		for _, path := range []string{"/timeline", "/bottleneck"} {
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path+"?"+q.Encode(), nil))
			switch rr.Code {
			case http.StatusOK:
				if !json.Valid(rr.Body.Bytes()) {
					t.Fatalf("%s?%s: 200 with invalid JSON: %q", path, q.Encode(), rr.Body.String())
				}
			case http.StatusBadRequest:
			default:
				t.Fatalf("%s?%s: status %d: %q", path, q.Encode(), rr.Code, rr.Body.String())
			}
		}
	})
}

package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestMetricCatalogue(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("%q: name must match %s", m.Name, nameRE)
		}
		if seen[m.Name] {
			t.Errorf("%q: listed twice", m.Name)
		}
		seen[m.Name] = true
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%q: unit %q must match %s", m.Name, m.Unit, unitRE)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%q: direction %q", m.Name, m.Better)
		}
	}
	var maxBound float64
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%q: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	if s := endToEnd[0]; s.Name != "setup_s" || s.Unit != "s" || s.Better != "lower" || s.Bound != maxBound {
		t.Errorf("setup_s must be first, in s, lower is better, with the largest bound: %+v", s)
	}
	for _, m := range perLayer {
		if m.Bound != 0 {
			t.Errorf("%q: per-layer metrics carry no bound", m.Name)
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json in step with the catalogue and
// the workload table.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var doc struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Seconds   int      `json:"run_seconds"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jm `json:"end_to_end"`
		PerLayer []jm `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Seconds < 1 || doc.Seconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", doc.Seconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, table has %q: %q", i, doc.Workloads[i], w.Name, w.Why)
		}
	}
	same := func(kind string, got []jm, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the catalogue", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better || g.Bound != m.Bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, catalogue has %+v", kind, i, g, m)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

// TestReadmeListsEverything keeps the benchmark's doc complete.
func TestReadmeListsEverything(t *testing.T) {
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(b)
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !strings.Contains(doc, "`"+m.Name+"`") {
			t.Errorf("README.md does not document %s", m.Name)
		}
	}
	for _, w := range workloads {
		if !strings.Contains(doc, "`"+w.Name+"`") || !strings.Contains(doc, w.Why) {
			t.Errorf("README.md does not give %s with its reason", w.Name)
		}
	}
}

// small shrinks a workload so one input runs in well under a second.
func small(w workload) workload {
	w.base.FramesPerStream = 45
	w.base.Streams = min(w.base.Streams, 6)
	return w
}

// TestInputsArePureInSeed: the same (workload, seed) reproduces the
// same digest, another seed gives other inputs, and the traced run
// computes the same outputs as the facade.
func TestInputsArePureInSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("trains both cameras")
	}
	for _, w := range workloads {
		w := small(w)
		t.Run(w.Name, func(t *testing.T) {
			a, err := w.call(7, 0)
			if err != nil {
				t.Fatal(err)
			}
			if a.Err != nil {
				t.Fatal(a.Err)
			}
			b, err := w.call(7, 0)
			if err != nil {
				t.Fatal(err)
			}
			if a.Digest != b.Digest {
				t.Errorf("seed 7 twice: digests %016x and %016x", a.Digest, b.Digest)
			}
			c, err := w.call(8, 0)
			if err != nil {
				t.Fatal(err)
			}
			if a.Digest == c.Digest {
				t.Errorf("seeds 7 and 8 gave the same digest %016x", a.Digest)
			}
			tc, err := tracedCall(w, 7, 0)
			if err != nil {
				t.Fatal(err)
			}
			if tc.out.Digest != a.Digest {
				t.Errorf("traced digest %016x, untraced %016x", tc.out.Digest, a.Digest)
			}
			if tc.timers.next.calls.Load() != a.Offered || tc.timers.tyolo.calls.Load() != a.StageProcessed[3] {
				t.Errorf("decorators saw %d frames and %d T-YOLO calls, run had %d and %d",
					tc.timers.next.calls.Load(), tc.timers.tyolo.calls.Load(), a.Offered, a.StageProcessed[3])
			}
		})
	}
}

func TestQuantileNearestRank(t *testing.T) {
	v := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 5}, {0.99, 10}, {0.1, 1}, {0, 1}} {
		if got := quantile(v, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of nothing must be 0")
	}
}

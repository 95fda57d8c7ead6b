package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCommittedBaselinesLoad reads each committed BENCH document a gate
// compares against. A format change that leaves one unreadable fails
// here rather than quietly turning its gate into "skipped".
func TestCommittedBaselinesLoad(t *testing.T) {
	for path, b := range map[string]baseline{
		benchKernelsPath:     &kernelReport{},
		benchClusterPath:     &clusterBenchReport{},
		benchConsolidatePath: &consolidateBenchReport{},
	} {
		if skip := loadBaseline(filepath.Join("..", "..", path), b); skip != "" {
			t.Errorf("%s: %s", path, skip)
		}
	}
}

func TestLoadBaselineSkips(t *testing.T) {
	dir := t.TempDir()
	garbage := filepath.Join(dir, "garbage.json")
	if err := os.WriteFile(garbage, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{filepath.Join(dir, "missing.json"), garbage, empty} {
		if skip := loadBaseline(path, &clusterBenchReport{}); !strings.HasPrefix(skip, "skipped: ") {
			t.Errorf("%s: verdict %q, want a skipped: verdict", filepath.Base(path), skip)
		}
	}
}

// TestRecordGate checks that record always writes the document and
// turns verdicts into an error only under -gate, and only for FAIL.
func TestRecordGate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	doc := map[string]string{"gate": "x"}
	ok, skipped, fail := "ok: fine", "skipped: no baseline", "FAIL: regressed"
	cases := []struct {
		gate     bool
		verdicts []string
		wantErr  bool
	}{
		{false, []string{fail}, false},
		{true, nil, false},
		{true, []string{ok, skipped}, false},
		{true, []string{ok, fail}, true},
		{true, []string{fail, skipped}, true},
	}
	for _, c := range cases {
		os.Remove(path)
		err := record(path, doc, c.gate, c.verdicts...)
		if (err != nil) != c.wantErr {
			t.Errorf("record(gate=%v, %q) = %v, want error %v", c.gate, c.verdicts, err, c.wantErr)
		}
		if err != nil && !strings.Contains(err.Error(), fail) {
			t.Errorf("record(gate=%v, %q) = %v, want it to name %q", c.gate, c.verdicts, err, fail)
		}
		if data, err := os.ReadFile(path); err != nil || !strings.Contains(string(data), `"gate": "x"`) {
			t.Errorf("record(gate=%v, %q) wrote %q, %v", c.gate, c.verdicts, data, err)
		}
	}
}

// TestConsolidateGate covers the verdict order: a pack-ratio failure
// needs no baseline, a missing baseline skips the knee comparisons, and
// the knee must beat the full-frame baseline and hold its own figure.
func TestConsolidateGate(t *testing.T) {
	shape := fleetShape{Instances: 2, FramesPerStream: 60}
	report := func(knee int, pack float64) *consolidateBenchReport {
		return &consolidateBenchReport{
			fleetShape:      shape,
			BaselineStreams: 448,
			MaxSustained:    knee,
			RefBound:        []refBoundRow{{Streams: 8, Consolidated: true, PackRatio: pack}},
		}
	}
	prev := &consolidateBenchReport{fleetShape: shape, MaxSustained: 480}
	cases := []struct {
		r     *consolidateBenchReport
		full  fleetShape
		skip  string
		want  string
		about string
	}{
		{report(480, 1.2), shape, "skipped: no baseline", "FAIL: pack ratio", "pack ratio fails without a baseline"},
		{report(480, 2.2), shape, "skipped: no baseline", "skipped: no baseline", "missing baseline skips"},
		{report(480, 2.2), fleetShape{Instances: 2, FramesPerStream: 120}, "", "skipped: baseline shape differs", "other shape skips"},
		{report(448, 2.2), shape, "", "FAIL: consolidated fleet sustains 448 streams, not above", "knee at the full-frame baseline"},
		{report(464, 2.2), shape, "", "FAIL: consolidated fleet sustains 464 streams, committed baseline sustained 480", "knee below its own figure"},
		{report(480, 2.2), shape, "", "ok: ", "knee holds"},
	}
	for _, c := range cases {
		if got := consolidateGate(c.r, c.full, prev, c.skip); !strings.HasPrefix(got, c.want) {
			t.Errorf("%s: verdict %q, want prefix %q", c.about, got, c.want)
		}
	}
}

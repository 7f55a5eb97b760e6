package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// benchmarkSpec reads the metric and workload names BENCHMARK.json
// promises the driver.
func benchmarkSpec(t *testing.T) (workloadNames, endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		workloadNames = append(workloadNames, w.Name)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return workloadNames, endToEnd, perLayer
}

// readRun loads a run document's workload reports.
func readRun(t *testing.T, path string) []report {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Workloads []report }
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	return doc.Workloads
}

func sameNames(t *testing.T, what string, got map[string]metric, want []string) {
	t.Helper()
	names := sortedNames(got)
	want = append([]string(nil), want...)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Errorf("%s: %d metrics %v, BENCHMARK.json names %d %v", what, len(names), names, len(want), want)
		return
	}
	for i := range names {
		if names[i] != want[i] {
			t.Errorf("%s: metric %q, BENCHMARK.json has %q", what, names[i], want[i])
		}
	}
}

// The whole benchmark at one-second windows: every correctness and
// workload-shape assertion runs, no timing is asserted, so this keeps
// the harness compiling and correct without ever failing on speed. Every
// workload must print exactly the end-to-end metrics BENCHMARK.json
// names.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all five workloads (~20s)")
	}
	out := t.TempDir()
	if code := realMain("all", options{seed: 1, window: time.Second, setups: 1, outDir: out}); code != 0 {
		t.Fatalf("smoke run exited %d", code)
	}
	workloadNames, endToEnd, _ := benchmarkSpec(t)
	reports := readRun(t, filepath.Join(out, "run-all.json"))
	if len(reports) != len(workloadNames) {
		t.Fatalf("%d workloads ran, BENCHMARK.json names %d", len(reports), len(workloadNames))
	}
	for i, rep := range reports {
		if rep.Workload != workloadNames[i] {
			t.Errorf("workload %d is %q, BENCHMARK.json says %q", i, rep.Workload, workloadNames[i])
		}
		if rep.Failed != 0 {
			t.Logf("%s: %d of %d operations failed: %v", rep.Workload, rep.Failed, rep.Attempted, rep.Errors)
		}
		sameNames(t, rep.Workload, rep.Metrics, endToEnd)
	}
	// Data directories are removed on the way out.
	if left, _ := filepath.Glob(filepath.Join(out, "data-*")); len(left) != 0 {
		t.Errorf("data directories left behind: %v", left)
	}
}

// One traced run end to end: it must print exactly the per-layer
// metrics BENCHMARK.json names and write its spans.
func TestTracedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a traced workload, two short runs and the probe suite (~20s)")
	}
	out := t.TempDir()
	if code := realMain("rank-cold", options{seed: 2, window: 4 * time.Second, traced: true, setups: 1, outDir: out}); code != 0 {
		t.Fatalf("traced run exited %d", code)
	}
	_, _, perLayer := benchmarkSpec(t)
	reports := readRun(t, filepath.Join(out, "run-rank-cold-traced.json"))
	if len(reports) != 1 {
		t.Fatalf("%d reports", len(reports))
	}
	sameNames(t, "rank-cold traced", reports[0].Metrics, perLayer)
	var trace struct{ Spans []span }
	data, err := os.ReadFile(filepath.Join(out, "trace-rank-cold.json"))
	if err == nil {
		err = json.Unmarshal(data, &trace)
	}
	if err != nil || len(trace.Spans) == 0 {
		t.Errorf("span file: %d spans, %v", len(trace.Spans), err)
	}
	if left, _ := filepath.Glob(filepath.Join(out, "data-*")); len(left) != 0 {
		t.Errorf("data directories left behind: %v", left)
	}
}

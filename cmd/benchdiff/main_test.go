package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro/internal/serve
cpu: AMD EPYC 7B13
BenchmarkServeRank-8     	       1	     52917 ns/op	       18900 qps	    1200 B/op	      11 allocs/op
BenchmarkServeRankHTTP-8 	       1	     98000 ns/op	    9100 B/op	      64 allocs/op
BenchmarkSampleRank/n=100000-8         	       1	         6.400 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	repro/internal/serve	1.2s
BenchmarkRankerRank    	       1	   6600000 ns/op	   84049 B/op	       6 allocs/op
BenchmarkRankerRank    	       1	   5500000 ns/op	   84049 B/op	       6 allocs/op
BenchmarkRankerRank    	       1	   7100000 ns/op	   84049 B/op	       6 allocs/op
BenchmarkServeFeedback 	     100	      9000 ns/op	    4100 B/op	      75 allocs/op
BenchmarkServeFeedback 	     100	     12000 ns/op	    3900 B/op	      50 allocs/op
`

func TestParse(t *testing.T) {
	got, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("parsed %d benchmarks, want 5: %v", len(got), got)
	}
	sr, ok := got["BenchmarkServeRank"]
	if !ok {
		t.Fatalf("GOMAXPROCS suffix not stripped: %v", got)
	}
	if sr.NsPerOp != 52917 || sr.BytesPerOp != 1200 || sr.AllocsPerOp != 11 {
		t.Fatalf("BenchmarkServeRank = %+v", sr)
	}
	if sr.Metrics["qps"] != 18900 {
		t.Fatalf("custom metric lost: %+v", sr)
	}
	sub := got["BenchmarkSampleRank/n=100000"]
	if sub.NsPerOp != 6.4 {
		t.Fatalf("sub-benchmark = %+v", sub)
	}
	// Repeated runs keep the fastest measurement.
	if rr := got["BenchmarkRankerRank"]; rr.NsPerOp != 5_500_000 {
		t.Fatalf("best-of-N not kept: %+v", rr)
	}
	// allocs/op keeps its own minimum: a fast run at 75 allocs beside a
	// slower one at 50 is judged 50, with the fast run's ns/op.
	if sf := got["BenchmarkServeFeedback"]; sf.NsPerOp != 9000 || sf.AllocsPerOp != 50 {
		t.Fatalf("allocs/op not the minimum over runs: %+v", sf)
	}
}

// TestParseAllocsGateStillExact: the per-run allocs minimum only
// forgives a count some runs do not show; one extra allocation in every
// run still fails the exact gate.
func TestParseAllocsGateStillExact(t *testing.T) {
	base := map[string]Record{"BenchmarkServeRankBatch": {NsPerOp: 90000, AllocsPerOp: 3}}
	got, err := Parse(strings.NewReader(`BenchmarkServeRankBatch-2   100   91000 ns/op   4 allocs/op
BenchmarkServeRankBatch-2   100   88000 ns/op   4 allocs/op
BenchmarkServeRankBatch-2   100   95000 ns/op   4 allocs/op
`))
	if err != nil {
		t.Fatal(err)
	}
	fails := Compare(base, got, 0.25, 50000)
	if len(fails) != 1 || !strings.Contains(fails[0], "BenchmarkServeRankBatch: allocs/op 4") {
		t.Fatalf("baseline+1 in every run not caught: %v", fails)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	if _, err := Parse(strings.NewReader("BenchmarkX-8  1  12 ns/op  7\n")); err == nil {
		t.Fatal("odd field count accepted")
	}
	if _, err := Parse(strings.NewReader("BenchmarkX-8  1  twelve ns/op\n")); err == nil {
		t.Fatal("non-numeric value accepted")
	}
}

func TestCompareGate(t *testing.T) {
	base := map[string]Record{
		"BenchmarkServeRank":  {NsPerOp: 50000, AllocsPerOp: 10},
		"BenchmarkRankerRank": {NsPerOp: 6_600_000, AllocsPerOp: 6},
		"BenchmarkSampleRank": {NsPerOp: 6, AllocsPerOp: 0},
	}

	// Identical run: clean.
	if fails := Compare(base, base, 0.25, 200); len(fails) != 0 {
		t.Fatalf("self-compare failed: %v", fails)
	}

	// Within tolerance: +20% ns, same allocs.
	cur := map[string]Record{
		"BenchmarkServeRank":  {NsPerOp: 60000, AllocsPerOp: 10},
		"BenchmarkRankerRank": {NsPerOp: 7_000_000, AllocsPerOp: 6},
		"BenchmarkSampleRank": {NsPerOp: 150, AllocsPerOp: 0}, // timer noise under floor-ns
	}
	if fails := Compare(base, cur, 0.25, 200); len(fails) != 0 {
		t.Fatalf("within-tolerance run failed: %v", fails)
	}

	// ns/op regression beyond 25%.
	cur["BenchmarkServeRank"] = Record{NsPerOp: 70000, AllocsPerOp: 10}
	fails := Compare(base, cur, 0.25, 200)
	if len(fails) != 1 || !strings.Contains(fails[0], "BenchmarkServeRank: ns/op") {
		t.Fatalf("ns regression not caught: %v", fails)
	}

	// allocs/op regression is judged without the ns floor.
	cur["BenchmarkServeRank"] = Record{NsPerOp: 50000, AllocsPerOp: 14}
	fails = Compare(base, cur, 0.25, 200)
	if len(fails) != 1 || !strings.Contains(fails[0], "allocs/op") {
		t.Fatalf("alloc regression not caught: %v", fails)
	}

	// allocs/op is exact: one allocation above the baseline fails, -tol
	// notwithstanding.
	cur["BenchmarkServeRank"] = Record{NsPerOp: 50000, AllocsPerOp: 11}
	fails = Compare(base, cur, 0.25, 200)
	if len(fails) != 1 || !strings.Contains(fails[0], "BenchmarkServeRank: allocs/op") {
		t.Fatalf("one extra alloc not caught: %v", fails)
	}

	// A deleted benchmark fails the gate (no silent erosion).
	delete(cur, "BenchmarkRankerRank")
	cur["BenchmarkServeRank"] = Record{NsPerOp: 50000, AllocsPerOp: 10}
	fails = Compare(base, cur, 0.25, 200)
	if len(fails) != 1 || !strings.Contains(fails[0], "missing") {
		t.Fatalf("missing benchmark not caught: %v", fails)
	}

	// New benchmarks in the current run are not judged.
	cur["BenchmarkRankerRank"] = base["BenchmarkRankerRank"]
	cur["BenchmarkBrandNew"] = Record{NsPerOp: 1e9, AllocsPerOp: 1e6}
	if fails := Compare(base, cur, 0.25, 200); len(fails) != 0 {
		t.Fatalf("new benchmark judged: %v", fails)
	}
}

func TestStaleAllocsNamesCountsBelowBaseline(t *testing.T) {
	base := map[string]Record{
		"BenchmarkReplicationShip": {NsPerOp: 1_700_000, AllocsPerOp: 3611},
		"BenchmarkServeRank":       {NsPerOp: 50000, AllocsPerOp: 10},
		"BenchmarkGone":            {NsPerOp: 100, AllocsPerOp: 5},
	}
	cur := map[string]Record{
		"BenchmarkReplicationShip": {NsPerOp: 1_700_000, AllocsPerOp: 3600},
		"BenchmarkServeRank":       {NsPerOp: 50000, AllocsPerOp: 10},
	}
	notes := StaleAllocs(base, cur)
	if len(notes) != 1 || !strings.Contains(notes[0], "BenchmarkReplicationShip: allocs/op 3600 below baseline 3611") {
		t.Fatalf("stale allocs baseline not named: %v", notes)
	}
	// A count below the baseline is a note, never a gate failure.
	delete(base, "BenchmarkGone")
	if fails := Compare(base, cur, 0.25, 200); len(fails) != 0 {
		t.Fatalf("fewer allocs failed the gate: %v", fails)
	}
	if notes := StaleAllocs(base, base); len(notes) != 0 {
		t.Fatalf("self-compare named stale baselines: %v", notes)
	}
}

func TestRatioFlagParsing(t *testing.T) {
	var r ratioFlags
	if err := r.Set("BenchmarkWALAppendRecord<=1.15xBenchmarkWALAppend"); err != nil {
		t.Fatalf("valid constraint rejected: %v", err)
	}
	if len(r) != 1 || r[0].Left != "BenchmarkWALAppendRecord" || r[0].Factor != 1.15 || r[0].Right != "BenchmarkWALAppend" {
		t.Fatalf("parsed = %+v", r)
	}
	for _, bad := range []string{
		"",
		"BenchmarkA<=BenchmarkB",       // no factor
		"BenchmarkA<=0x BenchmarkB",    // space in name
		"BenchmarkA<=0xBenchmarkB",     // zero factor
		"A<=1.1xBenchmarkB",            // left not a Benchmark name
		"BenchmarkA>=1.1xBenchmarkB",   // wrong operator
		"BenchmarkA<=1.1.1xBenchmarkB", // malformed factor
	} {
		if err := r.Set(bad); err == nil {
			t.Fatalf("malformed constraint accepted: %q", bad)
		}
	}
	if got := r.String(); !strings.Contains(got, "BenchmarkWALAppendRecord<=1.15xBenchmarkWALAppend") {
		t.Fatalf("String() = %q", got)
	}
}

func TestCheckRatios(t *testing.T) {
	cur := map[string]Record{
		"BenchmarkWALAppend":       {NsPerOp: 3000},
		"BenchmarkWALAppendRecord": {NsPerOp: 2700},
	}
	within := []Ratio{{Left: "BenchmarkWALAppendRecord", Factor: 1.15, Right: "BenchmarkWALAppend"}}
	if fails := CheckRatios(cur, within); len(fails) != 0 {
		t.Fatalf("within-ratio run failed: %v", fails)
	}

	// Record path regresses past the factor.
	cur["BenchmarkWALAppendRecord"] = Record{NsPerOp: 3600}
	fails := CheckRatios(cur, within)
	if len(fails) != 1 || !strings.Contains(fails[0], "exceeds 1.15x BenchmarkWALAppend") {
		t.Fatalf("ratio violation not caught: %v", fails)
	}

	// A side missing from the run fails loudly, not silently.
	fails = CheckRatios(cur, []Ratio{{Left: "BenchmarkGone", Factor: 2, Right: "BenchmarkAlsoGone"}})
	if len(fails) != 2 || !strings.Contains(fails[0], "missing") || !strings.Contains(fails[1], "missing") {
		t.Fatalf("missing sides not caught: %v", fails)
	}
}

// TestRunPrintsEveryVerdict: a ratio violation no longer ends the run
// before the baseline comparison. One ratio misfire and one allocs/op
// regression in the same input are both printed, beside the ratio that
// holds, and the exit status is 1; so is a ratio violation beside a
// baseline that cannot be read.
func TestRunPrintsEveryVerdict(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "bench.txt")
	base := filepath.Join(dir, "base.json")
	if err := os.WriteFile(in, []byte(`BenchmarkA-2     100   5000 ns/op   0 allocs/op
BenchmarkB-2     100   1000 ns/op   0 allocs/op
BenchmarkC-2     100   2000 ns/op   3 allocs/op
`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(base, []byte(`{"benchmarks": {
  "BenchmarkA": {"ns_per_op": 5000, "allocs_per_op": 0},
  "BenchmarkB": {"ns_per_op": 1000, "allocs_per_op": 0},
  "BenchmarkC": {"ns_per_op": 2000, "allocs_per_op": 2}
}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr strings.Builder
	code := run([]string{"-in", in, "-out", filepath.Join(dir, "out.json"), "-baseline", base,
		"-ratio", "BenchmarkA<=2xBenchmarkB", "-ratio", "BenchmarkB<=1xBenchmarkC"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit status %d, want 1\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	for _, want := range []string{
		"BenchmarkA: ns/op 5000 exceeds 2x BenchmarkB",
		"BenchmarkC: allocs/op 3 exceeds baseline 2",
	} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr lacks %q:\n%s", want, &stderr)
		}
	}
	for _, want := range []string{"ratio ok: BenchmarkB", "BenchmarkC", "allocs/op      2 ->      3"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout lacks %q:\n%s", want, &stdout)
		}
	}

	// A baseline that cannot be read fails the run, after the ratio
	// violation is printed.
	stdout.Reset()
	stderr.Reset()
	code = run([]string{"-in", in, "-out", filepath.Join(dir, "out.json"), "-baseline", filepath.Join(dir, "missing.json"),
		"-ratio", "BenchmarkA<=2xBenchmarkB"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("missing baseline: exit status %d, want 1\nstderr:\n%s", code, &stderr)
	}
	for _, want := range []string{"BenchmarkA: ns/op 5000 exceeds 2x BenchmarkB", "missing.json"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("missing baseline: stderr lacks %q:\n%s", want, &stderr)
		}
	}

	// The same input without the faults passes.
	code = run([]string{"-in", in, "-out", filepath.Join(dir, "out.json"),
		"-ratio", "BenchmarkA<=5xBenchmarkB"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("clean run exit status %d, want 0\nstderr:\n%s", code, &stderr)
	}
}

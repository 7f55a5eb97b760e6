// Command benchdiff turns `go test -bench` output into a JSON benchmark
// record and gates CI on regressions against a committed baseline.
//
// Usage:
//
//	go test -run='^$' -bench='...' -benchtime=1x -benchmem ./... | benchdiff -out BENCH_ci.json -baseline BENCH_baseline.json
//	go test -run='^$' -bench='...' -benchtime=1x -benchmem ./... | benchdiff -out BENCH_baseline.json
//
// Flags:
//
//	-in        bench output file (default: stdin)
//	-out       JSON record to write (required)
//	-baseline  baseline JSON to compare against; omit to only record
//	-tol       fractional regression tolerance on ns/op (default 0.25)
//	-floor-ns  absolute ns/op slack added to the tolerance band (default 50000)
//	-ratio     relative constraint "A<=1.15xB" between two current-run
//	           benchmarks (repeatable); fails when A's ns/op exceeds
//	           1.15 times B's ns/op in THIS run
//
// The gate fails (exit 1) when a -ratio constraint is violated, when a
// benchmark present in the baseline is missing from the current run,
// when its ns/op exceeds baseline·(1+tol)+floor-ns, or when its
// allocs/op exceeds the baseline's at all: allocation counts are
// machine-independent, so they get no tolerance. A benchmark whose
// allocs/op falls below its baseline's is named on a `re-record` line,
// without failing: the exact gate would otherwise let that many
// allocations creep back unnoticed. The ns/op floor absorbs
// scheduler/timer/GC noise of short (-benchtime=100x) measurements,
// which is roughly constant (tens of µs amortized) rather than
// proportional: a single-digit-µs benchmark is effectively gated on
// allocs/op — exact once the benchmark warms its pools before the
// timer — while ms-scale benchmarks still get a meaningful 25% ns/op
// gate.
// Feed the output of several bench runs (CI uses three) into one
// invocation: a benchmark appearing multiple times keeps its fastest
// ns/op, the standard noise-robust statistic, and separately its lowest
// allocs/op. New benchmarks absent from the baseline are recorded but
// not judged.
//
// Every gate is judged and every verdict printed before benchdiff exits,
// so one failure never hides another.
//
// -ratio constraints compare two benchmarks measured in the SAME run,
// so they hold on any machine regardless of absolute disk speed. They
// pin relationships the code structure guarantees — e.g. the in-place
// record path must not be slower than encode-then-copy Append — that
// an absolute baseline can't express.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Record is one benchmark's measurements.
type Record struct {
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// File is the JSON document benchdiff reads and writes.
type File struct {
	Go         string            `json:"go"`
	Benchmarks map[string]Record `json:"benchmarks"`
}

// Ratio is one -ratio constraint: Left's ns/op must not exceed
// Factor times Right's ns/op in the current run.
type Ratio struct {
	Left   string
	Factor float64
	Right  string
}

// ratioExpr matches e.g. "BenchmarkWALAppendRecord<=1.15xBenchmarkWALAppend".
var ratioExpr = regexp.MustCompile(`^(Benchmark\S+)<=([0-9.]+)x(Benchmark\S+)$`)

// ratioFlags collects repeated -ratio flags.
type ratioFlags []Ratio

func (r *ratioFlags) String() string {
	parts := make([]string, len(*r))
	for i, c := range *r {
		parts[i] = fmt.Sprintf("%s<=%gx%s", c.Left, c.Factor, c.Right)
	}
	return strings.Join(parts, ",")
}

func (r *ratioFlags) Set(s string) error {
	m := ratioExpr.FindStringSubmatch(s)
	if m == nil {
		return fmt.Errorf("want NAME<=FACTORxNAME, got %q", s)
	}
	factor, err := strconv.ParseFloat(m[2], 64)
	if err != nil || factor <= 0 {
		return fmt.Errorf("bad factor in %q", s)
	}
	*r = append(*r, Ratio{Left: m[1], Factor: factor, Right: m[3]})
	return nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it parses args, writes the record, judges every
// gate — ratios, then ns/op and allocs/op against the baseline — and
// prints every verdict before it returns the exit status: 0 when all
// hold, 1 when any fails or an input cannot be read, 2 on bad flags.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "bench output file (default: stdin)")
	out := fs.String("out", "", "JSON record to write (required)")
	baseline := fs.String("baseline", "", "baseline JSON to compare against")
	tol := fs.Float64("tol", 0.25, "fractional ns/op regression tolerance")
	floorNs := fs.Float64("floor-ns", 50000, "absolute ns/op slack")
	var ratios ratioFlags
	fs.Var(&ratios, "ratio", "current-run constraint NAME<=FACTORxNAME (repeatable)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *out == "" {
		fmt.Fprintln(stderr, "benchdiff: -out is required")
		fs.Usage()
		return 2
	}
	if *tol < 0 || *floorNs < 0 {
		fmt.Fprintln(stderr, "benchdiff: -tol and -floor-ns must be >= 0")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 1
	}

	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		r = f
	}
	benches, err := Parse(r)
	if err != nil {
		return fail(err)
	}
	if len(benches) == 0 {
		return fail(fmt.Errorf("no benchmark lines found in input"))
	}
	doc := File{Go: runtime.Version(), Benchmarks: benches}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fail(err)
	}
	if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "benchdiff: recorded %d benchmarks to %s\n", len(benches), *out)

	// Ratio constraints judge the current run alone, so they apply even
	// when only recording a fresh baseline. A violation is printed and
	// judged with the baseline's verdicts, so it hides none of them.
	var ratioFailures []string
	for _, c := range ratios {
		if f := CheckRatios(benches, []Ratio{c}); len(f) > 0 {
			ratioFailures = append(ratioFailures, f...)
			continue
		}
		fmt.Fprintf(stdout, "  ratio ok: %s %.0f ns/op <= %gx %s %.0f ns/op\n",
			c.Left, benches[c.Left].NsPerOp, c.Factor, c.Right, benches[c.Right].NsPerOp)
	}

	// An unreadable baseline is one more failed gate: it is reported
	// after the ratio verdicts, not instead of them.
	var failures []string
	var baseErr error
	if *baseline != "" {
		var base File
		if base, baseErr = readFile(*baseline); baseErr == nil {
			failures = judgeBaseline(stdout, base.Benchmarks, benches, *tol, *floorNs)
		}
	}

	if len(ratioFailures) > 0 {
		fmt.Fprintf(stderr, "benchdiff: %d ratio constraint(s) violated:\n", len(ratioFailures))
		for _, f := range ratioFailures {
			fmt.Fprintln(stderr, "  "+f)
		}
	}
	if len(failures) > 0 {
		fmt.Fprintf(stderr, "benchdiff: %d regression(s) (ns/op beyond %.0f%%, or allocs/op above baseline):\n", len(failures), *tol*100)
		for _, f := range failures {
			fmt.Fprintln(stderr, "  "+f)
		}
	}
	if baseErr != nil {
		fmt.Fprintln(stderr, "benchdiff:", baseErr)
	}
	if len(ratioFailures)+len(failures) > 0 || baseErr != nil {
		return 1
	}
	return 0
}

// judgeBaseline compares cur against base (Compare), prints one line
// per baseline benchmark and the re-record notes, and returns the
// failures.
func judgeBaseline(stdout io.Writer, base, cur map[string]Record, tol, floorNs float64) []string {
	failures := Compare(base, cur, tol, floorNs)
	for _, name := range sortedNames(base) {
		b := base[name]
		c, ok := cur[name]
		if !ok {
			fmt.Fprintf(stdout, "  %-40s MISSING (baseline %.0f ns/op)\n", name, b.NsPerOp)
			continue
		}
		fmt.Fprintf(stdout, "  %-40s ns/op %10.0f -> %10.0f (%+6.1f%%)  allocs/op %6.0f -> %6.0f\n",
			name, b.NsPerOp, c.NsPerOp, pct(b.NsPerOp, c.NsPerOp),
			b.AllocsPerOp, c.AllocsPerOp)
	}
	for _, note := range StaleAllocs(base, cur) {
		fmt.Fprintln(stdout, "  re-record "+note)
	}
	if len(failures) == 0 {
		fmt.Fprintf(stdout, "benchdiff: %d benchmarks within %.0f%% ns/op and at or below allocs/op of baseline\n", len(base), tol*100)
	}
	return failures
}

// readFile reads and parses a benchdiff JSON document.
func readFile(path string) (File, error) {
	var f File
	buf, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(buf, &f); err != nil {
		return f, fmt.Errorf("parse %s: %w", path, err)
	}
	return f, nil
}

func pct(base, cur float64) float64 {
	if base == 0 {
		return 0
	}
	return (cur - base) / base * 100
}

// benchLine matches e.g.
//
//	BenchmarkServeRank-8   1   52917 ns/op   1200 B/op   11 allocs/op   18900 qps
//
// Name and iteration count first, then unit pairs in any order.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.*)$`)

// Parse extracts benchmark records from `go test -bench` output. The
// GOMAXPROCS suffix (-8) is stripped so records compare across machines
// with different core counts. A benchmark appearing multiple times (CI
// concatenates several runs) keeps its fastest measurement by ns/op and
// its lowest allocs/op, which may come from another run.
func Parse(r io.Reader) (map[string]Record, error) {
	out := map[string]Record{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		name := m[1]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		fields := strings.Fields(m[3])
		if len(fields)%2 != 0 {
			return nil, fmt.Errorf("odd measurement fields in %q", sc.Text())
		}
		rec := Record{}
		for i := 0; i < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q in %q", fields[i], sc.Text())
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				rec.NsPerOp = val
			case "B/op":
				rec.BytesPerOp = val
			case "allocs/op":
				rec.AllocsPerOp = val
			default:
				if rec.Metrics == nil {
					rec.Metrics = map[string]float64{}
				}
				rec.Metrics[unit] = val
			}
		}
		if prev, ok := out[name]; ok {
			allocs := min(prev.AllocsPerOp, rec.AllocsPerOp)
			if prev.NsPerOp <= rec.NsPerOp {
				rec = prev
			}
			rec.AllocsPerOp = allocs
		}
		out[name] = rec
	}
	return out, sc.Err()
}

// Compare returns one message per gate violation: a baseline benchmark
// missing from the current run, a ns/op regression beyond
// base·(1+tol)+floorNs, or any allocs/op above the baseline's.
func Compare(base, cur map[string]Record, tol, floorNs float64) []string {
	var failures []string
	for _, name := range sortedNames(base) {
		b := base[name]
		c, ok := cur[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: missing from current run", name))
			continue
		}
		if limit := b.NsPerOp*(1+tol) + floorNs; c.NsPerOp > limit {
			failures = append(failures, fmt.Sprintf("%s: ns/op %.0f exceeds %.0f (baseline %.0f)",
				name, c.NsPerOp, limit, b.NsPerOp))
		}
		if c.AllocsPerOp > b.AllocsPerOp {
			failures = append(failures, fmt.Sprintf("%s: allocs/op %.0f exceeds baseline %.0f",
				name, c.AllocsPerOp, b.AllocsPerOp))
		}
	}
	return failures
}

// StaleAllocs returns one note per baseline benchmark whose allocs/op in
// the current run is below the baseline's. The exact allocs gate lets a
// stale count hide that many allocations coming back, so the baseline
// wants re-recording; the note never fails the gate.
func StaleAllocs(base, cur map[string]Record) []string {
	var notes []string
	for _, name := range sortedNames(base) {
		if c, ok := cur[name]; ok && c.AllocsPerOp < base[name].AllocsPerOp {
			notes = append(notes, fmt.Sprintf("%s: allocs/op %.0f below baseline %.0f",
				name, c.AllocsPerOp, base[name].AllocsPerOp))
		}
	}
	return notes
}

func sortedNames(m map[string]Record) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// CheckRatios evaluates -ratio constraints against the current run's
// ns/op. Both sides must be present: a constraint naming an unmeasured
// benchmark is a gate failure, not a silent pass.
func CheckRatios(cur map[string]Record, ratios []Ratio) []string {
	var failures []string
	for _, c := range ratios {
		left, okL := cur[c.Left]
		right, okR := cur[c.Right]
		if !okL {
			failures = append(failures, fmt.Sprintf("%s: missing from current run (needed by ratio constraint)", c.Left))
		}
		if !okR && c.Right != c.Left {
			failures = append(failures, fmt.Sprintf("%s: missing from current run (needed by ratio constraint)", c.Right))
		}
		if !okL || !okR {
			continue
		}
		if limit := c.Factor * right.NsPerOp; left.NsPerOp > limit {
			failures = append(failures, fmt.Sprintf("%s: ns/op %.0f exceeds %gx %s (%.0f > %.0f)",
				c.Left, left.NsPerOp, c.Factor, c.Right, right.NsPerOp, limit))
		}
	}
	return failures
}

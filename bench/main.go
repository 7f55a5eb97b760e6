// Command bench is the system's benchmark of record: five seeded
// workloads driven over real loopback sockets against the real HTTP
// surface, every answer checked, every metric printed by name with its
// unit.
//
//	go run ./bench --workload rank-hot --seed 1 --seconds 16 --trace 0
//
// prints the workload's end-to-end metrics and ends with one JSON line
// {"correct","attempted","failed","metrics"}; --trace 1 prints the
// per-layer metrics instead and writes the spans to
// bench/out/trace-<workload>.json. Without --workload all five run in
// turn. README.md beside this file is the manual.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run: rank-hot, rank-cold, live-loop, ingest-durable, cluster-quorum or all")
		seed     = flag.Uint64("seed", 1, "seed for the corpus, queries, units and click draws")
		seconds  = flag.Int("seconds", 16, "measured seconds per workload run")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics and span files instead of the end-to-end metrics")
		smoke    = flag.Bool("smoke", false, "one-second windows, every correctness and workload-shape assertion, no timing value means anything")
		outDir   = flag.String("out", filepath.Join("bench", "out"), "directory for data directories, traces and the run document")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	opts := options{seed: *seed, window: time.Duration(*seconds) * time.Second, traced: *trace == 1, setups: 3, outDir: *outDir}
	if *smoke {
		opts.window, opts.setups = time.Second, 1
	}
	os.Exit(realMain(*workload, opts))
}

// options is what the flags boil down to.
type options struct {
	seed   uint64
	window time.Duration
	traced bool
	setups int
	outDir string
}

// environment is the commit-independent part of the run document.
type environment struct {
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Clients    int     `json:"clients"`
	FSType     string  `json:"fs_type"`
	Seed       uint64  `json:"seed"`
	WindowS    float64 `json:"window_s"`
	Traced     bool    `json:"traced"`
}

// result is the line the driver reads: exactly these four keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is one workload's part of the run document.
type report struct {
	result
	Workload string            `json:"workload,omitempty"`
	Raw      map[string]metric `json:"raw,omitempty"`
	Samples  map[string]int    `json:"samples,omitempty"`
	Notes    []string          `json:"notes,omitempty"`
	Errors   []string          `json:"errors,omitempty"`
}

func realMain(workload string, opts options) int {
	// The load model's two knobs follow the machine, capped so that a
	// bigger box runs the same experiment: C = min(nproc, 2) closed-loop
	// clients, GOMAXPROCS = min(nproc, 4).
	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	clients := min(runtime.NumCPU(), 2)
	if err := os.MkdirAll(opts.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	env := environment{
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: procs, Clients: clients,
		FSType: fsType(opts.outDir), Seed: opts.seed, WindowS: opts.window.Seconds(), Traced: opts.traced,
	}
	fmt.Printf("# %s nproc=%d GOMAXPROCS=%d clients=%d fs=%s seed=%d window=%gs traced=%v\n",
		env.GoVersion, env.NumCPU, env.GOMAXPROCS, env.Clients, env.FSType, env.Seed, env.WindowS, env.Traced)

	var reports []report
	found := false
	for _, w := range workloads {
		if workload != "all" && workload != w.name {
			continue
		}
		found = true
		rep, err := runWorkload(w.name, w.run, clients, opts)
		if err != nil {
			// Without a result line the driver sees the run as broken,
			// which it is.
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		printReport(rep)
		reports = append(reports, rep)
	}
	if !found {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", workload)
		return 2
	}
	doc, err := json.MarshalIndent(struct {
		Env       environment `json:"env"`
		Workloads []report    `json:"workloads"`
	}{env, reports}, "", "  ")
	if err == nil {
		name := "run-" + workload + ".json"
		if opts.traced {
			name = "run-" + workload + "-traced.json"
		}
		err = os.WriteFile(filepath.Join(opts.outDir, name), doc, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if len(reports) == 1 {
		// The driver's line, last on stdout.
		line, _ := json.Marshal(reports[0].result)
		fmt.Println(string(line))
	}
	return exitCode(reports)
}

// exitCode is non-zero when any answer was wrong or any workload-shape
// or end-state assertion failed. Operations the service refused or
// dropped are reported, against operations attempted, not judged here.
func exitCode(reports []report) int {
	for _, rep := range reports {
		if !rep.Correct {
			return 1
		}
	}
	return 0
}

// runWorkload performs one run and always tears its system down, data
// directories included, whether the run succeeded or not.
func runWorkload(name string, body func(*run) error, clients int, opts options) (report, error) {
	r := &run{
		workload: name, seed: opts.seed, window: opts.window, clients: clients, setups: opts.setups, outDir: opts.outDir,
		metrics: map[string]metric{}, samples: map[string]int{}, layers: map[string]metric{},
	}
	defer func() {
		if r.s != nil {
			r.s.close()
		}
	}()
	ctl, addr, err := startNull()
	if err != nil {
		return report{}, err
	}
	defer ctl.Close()
	r.ctlAddr = addr
	if opts.traced {
		err = r.traced(body)
	} else {
		err = body(r)
	}
	if err != nil {
		return report{}, err
	}
	r.normalize()
	rep := r.report()
	if opts.traced {
		rep.Metrics = r.layers
	}
	return rep, nil
}

func (r *run) report() report {
	return report{
		result:   result{Correct: r.tal.incorrect == 0, Attempted: r.tal.attempted(), Failed: r.tal.failed, Metrics: r.metrics},
		Workload: r.workload, Raw: r.raw, Samples: r.samples, Notes: r.notes, Errors: r.tal.errs,
	}
}

func printReport(rep report) {
	fmt.Printf("== %s: correct=%v attempted=%d failed=%d\n", rep.Workload, rep.Correct, rep.Attempted, rep.Failed)
	for _, name := range sortedNames(rep.Metrics) {
		m := rep.Metrics[name]
		if raw, ok := rep.Raw[name]; ok {
			fmt.Printf("%-32s %14.4f %-6s (n=%d, raw %.4f)\n", name, m.Value, m.Unit, rep.Samples[name], raw.Value)
		} else if n, ok := rep.Samples[name]; ok {
			fmt.Printf("%-32s %14.4f %-6s (n=%d)\n", name, m.Value, m.Unit, n)
		} else {
			fmt.Printf("%-32s %14.4f %s\n", name, m.Value, m.Unit)
		}
	}
	for _, n := range rep.Notes {
		fmt.Println("  note:", n)
	}
	for _, e := range rep.Errors {
		fmt.Println("  ERROR:", e)
	}
}

// fsType names the filesystem holding path, so a tmpfs data directory
// (no real fsync) shows in the record.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext2/3/4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

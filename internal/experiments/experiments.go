// Package experiments regenerates every figure of the paper's evaluation.
// Each runner returns a Table holding the same rows/series the paper
// reports, plus renderable chart data. DESIGN.md maps each experiment to
// the modules it exercises; EXPERIMENTS.md records measured-versus-paper
// outcomes.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/ascii"
	"repro/internal/community"
	"repro/internal/parexec"
	"repro/internal/policy"
	"repro/internal/quality"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Options controls experiment scale.
type Options struct {
	// Seed is the base random seed; replication i uses Seed+i.
	Seed uint64
	// Seeds is the number of replications averaged per data point
	// (default 3, or 1 in Quick mode).
	Seeds int
	// Quick shrinks communities, durations and sweeps so every runner
	// finishes in seconds — used by the test suite; figures keep their
	// shape but with more noise.
	Quick bool
	// Long enables the largest sweep points (n=10^6 pages, vu=10^6
	// visits/day), which take minutes each.
	Long bool
	// Parallel is the worker count for the simulation grid: every
	// (sweep point × replication seed) job is independent, so runners
	// fan them out across this many goroutines. Zero selects
	// GOMAXPROCS; 1 runs serially. Results are bit-identical at every
	// worker count because each job derives all randomness from its own
	// seed and aggregation happens in submission order.
	Parallel int
	// Progress, when non-nil, is called after each simulation job with
	// (completed, total) counts.
	Progress func(done, total int)
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Seeds <= 0 {
		if o.Quick {
			o.Seeds = 1
		} else {
			o.Seeds = 3
		}
	}
	return o
}

// Table is one reproduced figure or table.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Series  []ascii.Series
	LogX    bool
	XLabel  string
	YLabel  string
	Notes   []string
}

// Render formats the table with aligned columns.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	line(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteString("\n")
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Chart renders the table's series as an ASCII chart, or an empty string
// when the table has no chartable series.
func (t *Table) Chart() string {
	if len(t.Series) == 0 {
		return ""
	}
	c := &ascii.Chart{Title: t.Title, XLabel: t.XLabel, LogX: t.LogX, MinYAt0: true}
	for _, s := range t.Series {
		if err := c.Add(s); err != nil {
			return ""
		}
	}
	out, err := c.Render()
	if err != nil {
		return ""
	}
	return out
}

// baseCommunity returns the default community, or a scaled-down version
// in Quick mode that reaches steady state in a few hundred days.
func baseCommunity(o Options) community.Config {
	if o.Quick {
		c := community.Scaled(2000)
		c.LifetimeDays = 120
		return c
	}
	return community.Default()
}

// defaultQualities materializes the §6.1 quality multiset for n pages.
func defaultQualities(n int) []float64 {
	return quality.DeterministicWithTop(quality.Default(), n)
}

// simOptions picks warmup and measurement windows: two lifetimes of
// warmup, and a measurement window long enough to average over several
// top-page rebirths (QPC is dominated by whether the best pages are
// currently discovered).
func simOptions(comm community.Config, o Options, seed uint64) sim.Options {
	warm := int(2 * comm.LifetimeDays)
	measure := int(4 * comm.LifetimeDays)
	if o.Quick {
		measure = int(2 * comm.LifetimeDays)
	}
	return sim.Options{Seed: seed, WarmupDays: warm, MeasureDays: measure}
}

// grid converts experiment options into parexec grid options.
func (o Options) grid() parexec.Options {
	return parexec.Options{Workers: o.Parallel, Progress: o.Progress}
}

// simSpec is one simulation data point of a figure: a community/policy
// pair whose result is averaged over o.Seeds replications. mutate, when
// non-nil, adjusts the per-run sim options (mixed surfing, TBP probes,
// longevity ablations).
type simSpec struct {
	comm   community.Config
	pol    policy.Spec
	qs     []float64
	mutate func(*sim.Options)
}

// runSpecGrid fans every (spec × seed) simulation out on the parallel
// grid and returns results[spec][seed]. Every replication simulates
// through the spec's merge — the same implementation the online service
// runs. Each job derives all randomness from its own seed
// (o.Seed + replication index), so the grid is bit-identical to a serial
// loop over the same jobs at any worker count.
func runSpecGrid(specs []simSpec, o Options) ([][]*sim.Result, error) {
	jobs := make([]func() (*sim.Result, error), 0, len(specs)*o.Seeds)
	for _, sp := range specs {
		sp := sp
		for i := 0; i < o.Seeds; i++ {
			opts := simOptions(sp.comm, o, o.Seed+uint64(i))
			if sp.mutate != nil {
				sp.mutate(&opts)
			}
			jobs = append(jobs, func() (*sim.Result, error) {
				s, err := sim.New(sp.comm, sp.pol, sp.qs, opts)
				if err != nil {
					return nil, err
				}
				return s.Run(), nil
			})
		}
	}
	flat, err := parexec.Run(jobs, o.grid())
	if err != nil {
		return nil, err
	}
	out := make([][]*sim.Result, len(specs))
	for i := range specs {
		out[i] = flat[i*o.Seeds : (i+1)*o.Seeds]
	}
	return out, nil
}

// batchQPC runs every spec on the grid and summarizes normalized QPC per
// spec, in input order.
func batchQPC(specs []simSpec, o Options) ([]stats.Summary, error) {
	return batchSummaries(specs, o, func(r *sim.Result) float64 { return r.QPC })
}

// batchAbsQPC summarizes absolute QPC per spec (Figure 8's y-axis).
func batchAbsQPC(specs []simSpec, o Options) ([]stats.Summary, error) {
	return batchSummaries(specs, o, func(r *sim.Result) float64 { return r.AbsoluteQPC })
}

func batchSummaries(specs []simSpec, o Options, metric func(*sim.Result) float64) ([]stats.Summary, error) {
	grid, err := runSpecGrid(specs, o)
	if err != nil {
		return nil, err
	}
	out := make([]stats.Summary, len(specs))
	for i, rs := range grid {
		vals := make([]float64, len(rs))
		for j, r := range rs {
			vals[j] = metric(r)
		}
		out[i] = stats.Summarize(vals)
	}
	return out, nil
}

// Runner is a named experiment.
type Runner struct {
	ID    string
	Title string
	Run   func(Options) (*Table, error)
}

// All returns every figure runner in paper order.
func All() []Runner {
	return []Runner{
		{"fig1", "Live study: funny-vote ratio with vs without rank promotion", Figure1},
		{"fig2", "Exploration/exploitation tradeoff for one high-quality page", Figure2},
		{"fig3", "Steady-state awareness distribution of top-quality pages", Figure3},
		{"fig4a", "Popularity evolution of a Q=0.4 page", Figure4a},
		{"fig4b", "Time to become popular vs degree of randomization", Figure4b},
		{"fig5", "Quality-per-click vs degree of randomization", Figure5},
		{"fig6", "QPC vs r and starting point k (selective, simulation)", Figure6},
		{"fig7a", "Robustness: community size", Figure7a},
		{"fig7b", "Robustness: page lifetime", Figure7b},
		{"fig7c", "Robustness: visit rate", Figure7c},
		{"fig7d", "Robustness: user population size", Figure7d},
		{"fig8", "Mixed surfing and searching", Figure8},
		{"rec", "Recommendation check: r=0.1, k in {1,2}", Recommendation},
		{"fn1", "Ablation: popularity-correlated page lifetimes (footnote 1)", Footnote1},
	}
}

// ByID returns the runner with the given ID.
func ByID(id string) (Runner, bool) {
	for _, r := range All() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

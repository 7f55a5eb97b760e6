// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark executes the corresponding experiment runner
// end to end (community construction, warmup, steady-state measurement,
// table assembly), so `go test -bench=.` reproduces the full evaluation;
// the tables themselves are printed by `go run ./cmd/shuffledeck all`.
//
// Absolute durations matter more than per-op variance here: these are
// scientific workloads, not hot loops. Micro-benchmarks of the underlying
// primitives (merge, lazy resolver, treap, samplers) live in their
// packages' own _test files.
package shuffledeck_test

import (
	"testing"

	"repro/internal/attention"
	"repro/internal/community"
	"repro/internal/experiments"
	"repro/internal/policy"
	"repro/internal/quality"
	"repro/internal/randutil"
	"repro/internal/sim"

	shuffledeck "repro"
)

func newBenchRNG() *randutil.RNG { return randutil.New(1) }

func newBenchAttention(b *testing.B, n int) *attention.Model {
	b.Helper()
	att, err := attention.Default(n, 100)
	if err != nil {
		b.Fatal(err)
	}
	return att
}

// benchOptions returns the experiment scale used for benchmark runs:
// default-size communities with two replications per point, so a full
// -bench=. sweep completes in minutes. Parallel is left at zero, so the
// grid fans (sweep point × seed) jobs across GOMAXPROCS workers; results
// are bit-identical to the serial variants below at every worker count.
func benchOptions() experiments.Options {
	return experiments.Options{Seed: 1, Seeds: 2}
}

func runFigure(b *testing.B, id string) {
	b.Helper()
	runFigureOpts(b, id, benchOptions())
}

func runFigureOpts(b *testing.B, id string, opts experiments.Options) {
	b.Helper()
	if testing.Short() {
		// -short turns the figure suite into a smoke run (CI executes it
		// with -benchtime=1x): quick-scale communities, one seed.
		opts.Quick = true
		opts.Seeds = 1
	}
	r, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown figure %q", id)
	}
	for i := 0; i < b.N; i++ {
		tbl, err := r.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFigure1LiveStudy regenerates Figure 1: the live-study
// funny-vote ratios with and without rank promotion.
func BenchmarkFigure1LiveStudy(b *testing.B) { runFigure(b, "fig1") }

// BenchmarkFigure2Tradeoff regenerates Figure 2: the exploration benefit
// and exploitation loss of promoting one high-quality page.
func BenchmarkFigure2Tradeoff(b *testing.B) { runFigure(b, "fig2") }

// BenchmarkFigure3Awareness regenerates Figure 3: steady-state awareness
// distributions under nonrandomized and selective randomized ranking.
func BenchmarkFigure3Awareness(b *testing.B) { runFigure(b, "fig3") }

// BenchmarkFigure4aPopularityEvolution regenerates Figure 4(a): popularity
// evolution of a quality-0.4 page under three ranking methods.
func BenchmarkFigure4aPopularityEvolution(b *testing.B) { runFigure(b, "fig4a") }

// BenchmarkFigure4bTBP regenerates Figure 4(b): time-to-become-popular
// versus degree of randomization, analysis and simulation.
func BenchmarkFigure4bTBP(b *testing.B) { runFigure(b, "fig4b") }

// BenchmarkFigure5QPC regenerates Figure 5: quality-per-click versus
// degree of randomization, analysis and simulation, on the parallel
// grid (GOMAXPROCS workers).
func BenchmarkFigure5QPC(b *testing.B) { runFigure(b, "fig5") }

// BenchmarkFigure5QPCSerial is the single-worker baseline for
// BenchmarkFigure5QPC: identical output tables, no parallelism. The
// ratio of the two is the experiment engine's wall-clock speedup on
// this machine.
func BenchmarkFigure5QPCSerial(b *testing.B) {
	opts := benchOptions()
	opts.Parallel = 1
	runFigureOpts(b, "fig5", opts)
}

// BenchmarkFigure6QPCvsKR regenerates Figure 6: the simulation sweep of
// QPC over r and the starting point k.
func BenchmarkFigure6QPCvsKR(b *testing.B) { runFigure(b, "fig6") }

// BenchmarkFigure7aCommunitySize regenerates Figure 7(a): robustness to
// community size.
func BenchmarkFigure7aCommunitySize(b *testing.B) { runFigure(b, "fig7a") }

// BenchmarkFigure7bLifetime regenerates Figure 7(b): robustness to page
// lifetime.
func BenchmarkFigure7bLifetime(b *testing.B) { runFigure(b, "fig7b") }

// BenchmarkFigure7cVisitRate regenerates Figure 7(c): robustness to the
// aggregate visit rate.
func BenchmarkFigure7cVisitRate(b *testing.B) { runFigure(b, "fig7c") }

// BenchmarkFigure7dUsers regenerates Figure 7(d): robustness to the user
// population size.
func BenchmarkFigure7dUsers(b *testing.B) { runFigure(b, "fig7d") }

// BenchmarkFigure8MixedSurfing regenerates Figure 8: absolute QPC under
// mixed surfing and searching.
func BenchmarkFigure8MixedSurfing(b *testing.B) { runFigure(b, "fig8") }

// BenchmarkRecommendationCheck regenerates the §6.4 recommendation table.
func BenchmarkRecommendationCheck(b *testing.B) { runFigure(b, "rec") }

// BenchmarkSimulatedDayDefaultCommunity measures the simulator's per-day
// cost on the paper's default community under the recommended policy —
// the unit of work every figure above is built from.
func BenchmarkSimulatedDayDefaultCommunity(b *testing.B) {
	comm := community.Default()
	qs := quality.DeterministicWithTop(quality.Default(), comm.Pages)
	s, err := sim.New(comm, policy.Recommended(), qs, sim.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.StepDay()
	}
}

// BenchmarkRankerRank measures the public Ranker on a 10k-page result
// list with the recommended policy.
func BenchmarkRankerRank(b *testing.B) {
	pages := make([]shuffledeck.PageStat, 10000)
	for i := range pages {
		pages[i] = shuffledeck.PageStat{
			ID:         i,
			Popularity: float64((i * 7919) % 10000),
			Age:        i,
			Unexplored: i%100 == 0,
		}
	}
	r, err := shuffledeck.NewRanker(shuffledeck.Recommended(), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := r.Rank(pages); len(got) != len(pages) {
			b.Fatal("bad rank length")
		}
	}
}

// BenchmarkAnalyticSolve measures the §5 fixed-point solver on the
// default community.
func BenchmarkAnalyticSolve(b *testing.B) {
	comm := community.Default()
	for i := 0; i < b.N; i++ {
		if _, err := shuffledeck.Predict(comm, shuffledeck.Recommended()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFootnote1Ablation regenerates the popularity-correlated
// lifetime ablation table.
func BenchmarkFootnote1Ablation(b *testing.B) { runFigure(b, "fn1") }

// BenchmarkAblationLazyResolver measures resolving one day's worth of
// monitored visit positions through the O(1) lazy resolver.
func BenchmarkAblationLazyResolver(b *testing.B) {
	det := make(policy.Slice, 10000)
	pool := make(policy.Slice, 500)
	for i := range det {
		det[i] = i
	}
	for i := range pool {
		pool[i] = 100000 + i
	}
	res, err := policy.NewResolver(det, pool, 1, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	rng := newBenchRNG()
	att := newBenchAttention(b, 10500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for v := 0; v < 100; v++ {
			res.PageAt(att.SampleRank(rng), rng)
		}
	}
}

// BenchmarkAblationMaterializedResolver measures the same workload with a
// fresh full-list materialization per query — what the lazy resolver
// replaces. Expect roughly two orders of magnitude more work per day.
func BenchmarkAblationMaterializedResolver(b *testing.B) {
	det := make(policy.Slice, 10000)
	pool := make(policy.Slice, 500)
	for i := range det {
		det[i] = i
	}
	for i := range pool {
		pool[i] = 100000 + i
	}
	res, err := policy.NewResolver(det, pool, 1, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	rng := newBenchRNG()
	att := newBenchAttention(b, 10500)
	var sc policy.Scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for v := 0; v < 100; v++ {
			_ = res.Materialize(rng, &sc)[att.SampleRank(rng)-1]
		}
	}
}

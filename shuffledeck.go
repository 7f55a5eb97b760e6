// Package shuffledeck is a Go implementation of partially randomized
// ranking of search-engine results, after Pandey, Roy, Olston, Cho and
// Chakrabarti, "Shuffling a Stacked Deck: The Case for Partially
// Randomized Ranking of Search Engine Results" (VLDB 2005).
//
// Popularity-based ranking entrenches already-popular pages: new
// high-quality pages are shut out because users only see — and therefore
// only popularize — what is already ranked highly. Randomized rank
// promotion counters this by merging a small randomized sample of
// unexplored pages into the deterministic ranking: with probability r
// each result slot after position k−1 is taken by a random page from the
// promotion pool instead of the next deterministic result. The paper's
// recommendation, exposed here as Recommended, is selective promotion
// (pool = zero-awareness pages) with r = 0.1 and k ∈ {1, 2}.
//
// The package exposes four layers:
//
//   - Ranker: apply randomized rank promotion to your own result lists;
//   - community simulation (Simulate): the paper's §6 Web-community
//     simulator, measuring quality-per-click and time-to-become-popular
//     under any policy;
//   - the §5 analytical steady-state model (Predict);
//   - the Appendix A live study (RunLiveStudy) and every figure of the
//     evaluation (ReproduceFigure).
package shuffledeck

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/analytic"
	"repro/internal/community"
	"repro/internal/experiments"
	"repro/internal/livestudy"
	"repro/internal/policy"
	"repro/internal/quality"
	"repro/internal/randutil"
	"repro/internal/serve"
	"repro/internal/sim"
)

// Promotion pool rules (§4 of the paper), the values of Policy.Rule.
const (
	// RuleNone disables promotion (pure popularity ranking).
	RuleNone = policy.RuleNone
	// RuleUniform pools every page independently with probability r.
	RuleUniform = policy.RuleUniform
	// RuleSelective pools exactly the unexplored (zero-awareness) pages.
	RuleSelective = policy.RuleSelective
)

// Policy is a rank-promotion configuration: a pool rule, the protected
// prefix length k, and the degree of randomization r. It is the one value
// every surface — Ranker, Simulate, Predict, Live — names a policy by.
type Policy = policy.Spec

// Recommended returns the paper's §6.4 recipe: selective promotion with
// 10% randomization starting at the top position.
func Recommended() Policy { return policy.Recommended() }

// RecommendedSafe returns the variant that never perturbs the top result.
func RecommendedSafe() Policy { return policy.RecommendedSafe() }

// Community describes a topic community: page count, user population,
// monitored-user sample, visit budget and page lifetime (§3).
type Community = community.Config

// DefaultCommunity returns the paper's §6.1 default community
// (n=10,000 pages, 1,000 users, 100 monitored, 1,000 visits/day, 1.5-year
// page lifetime).
func DefaultCommunity() Community { return community.Default() }

// ScaledCommunity returns an n-page community with the paper's default
// proportions (§7.1).
func ScaledCommunity(n int) Community { return community.Scaled(n) }

// PageStat is one page as seen by the Ranker: an opaque ID, its current
// popularity score, its age (smaller = older, used to break popularity
// ties in the paper's convention — older first), and whether it is
// unexplored (no measured awareness), which places it in the selective
// promotion pool.
type PageStat struct {
	ID         int
	Popularity float64
	Age        int
	Unexplored bool
}

// Ranker applies randomized rank promotion to result lists. It is not
// safe for concurrent use; create one per goroutine (they are cheap).
type Ranker struct {
	policy Policy
	rng    *randutil.RNG

	// Reusable scratch, so steady-state Rank calls allocate only the
	// returned slice: the sorted working copy, the det/pool split, and
	// the merge's buffers.
	ordered []PageStat
	det     []int
	pool    []int
	merge   policy.Scratch
}

// NewRanker validates the policy and creates a ranker seeded
// deterministically.
func NewRanker(pol Policy, seed uint64) (*Ranker, error) {
	if err := pol.Validate(); err != nil {
		return nil, err
	}
	return &Ranker{policy: pol, rng: randutil.New(seed)}, nil
}

// Policy returns the ranker's policy.
func (r *Ranker) Policy() Policy { return r.policy }

// Rank orders the given pages: deterministically by popularity (ties by
// age, older first), then merged with the randomized promotion pool
// according to the policy. Each call produces a fresh randomization, the
// way each query's result list is independently randomized. The input is
// not modified; the returned slice holds page IDs in presented order and
// is the call's only allocation in steady state (intermediates live in
// reusable scratch on the Ranker).
func (r *Ranker) Rank(pages []PageStat) []int {
	return r.rankInto(pages, make([]int, 0, len(pages)))
}

// rankInto appends the ranked page IDs to dst, reusing the Ranker's
// scratch buffers for the sorted copy, the det/pool split and the merge.
func (r *Ranker) rankInto(pages []PageStat, dst []int) []int {
	ordered := append(r.ordered[:0], pages...)
	r.ordered = ordered
	// Entries this order ties share their ID, so swapping them changes
	// neither det nor pool below: an unstable sort ranks exactly as a
	// stable one would.
	slices.SortFunc(ordered, func(a, b PageStat) int {
		if c := cmp.Compare(b.Popularity, a.Popularity); c != 0 {
			return c
		}
		if c := cmp.Compare(b.Age, a.Age); c != 0 {
			return c // larger Age = older = first
		}
		return cmp.Compare(a.ID, b.ID)
	})
	unexplored := 0
	for _, p := range ordered {
		if p.Unexplored {
			unexplored++
		}
	}
	// Params is read before any randomness is drawn, so state-dependent
	// policies see this call's candidate population.
	k, rr := r.policy.Params(policy.State{Pages: len(ordered), ZeroAware: unexplored})
	det, pool := r.det[:0], r.pool[:0]
	switch r.policy.Selection() {
	case policy.SelectUnexplored:
		for _, p := range ordered {
			if p.Unexplored {
				pool = append(pool, p.ID)
			} else {
				det = append(det, p.ID)
			}
		}
	case policy.SelectCoin:
		for _, p := range ordered {
			if r.rng.Bernoulli(rr) {
				pool = append(pool, p.ID)
			} else {
				det = append(det, p.ID)
			}
		}
	default:
		for _, p := range ordered {
			det = append(det, p.ID)
		}
	}
	r.det, r.pool = det, pool
	merged, _ := r.merge.MergeBounded(policy.Slice(det), policy.Slice(pool),
		len(ordered), k, rr, r.rng)
	return append(dst, merged...)
}

// SimOptions configures a community simulation run. The zero value uses
// the paper's defaults (§6.1 quality distribution, two-lifetime warmup,
// one-lifetime measurement).
type SimOptions struct {
	// Seed drives all randomness.
	Seed uint64
	// Qualities overrides the page-quality multiset (must have exactly
	// community.Pages entries in (0,1]). Nil selects the paper's
	// PageRank-shaped power law with top quality 0.4.
	Qualities []float64
	// WarmupDays and MeasureDays override the run lengths (0 = default).
	WarmupDays  int
	MeasureDays int
	// SurfFraction enables §8 mixed surfing: the fraction of visits made
	// by random surfing rather than searching (teleport c=0.15).
	SurfFraction float64
	// MeasureTBP tracks time-to-become-popular of the best page with an
	// immortal, recycled probe.
	MeasureTBP bool
}

// SimReport is the outcome of Simulate.
type SimReport struct {
	// QPC is normalized quality-per-click (1.0 = ranking by true
	// quality).
	QPC float64
	// AbsoluteQPC is the unnormalized expected quality per click.
	AbsoluteQPC float64
	// TBPDays is the mean time for the best page to become popular, with
	// TBPObservations completed measurements (0 when MeasureTBP is off
	// or the page never became popular).
	TBPDays         float64
	TBPObservations int
	// UndiscoveredPages is the mean number of zero-awareness pages.
	UndiscoveredPages float64
	// Days simulated in total.
	Days int
}

// Simulate runs the §6 Web-community simulator for the given community
// and promotion policy.
func Simulate(comm Community, pol Policy, opts SimOptions) (*SimReport, error) {
	qs := opts.Qualities
	if qs == nil {
		qs = quality.DeterministicWithTop(quality.Default(), comm.Pages)
	}
	so := sim.Options{
		Seed:        opts.Seed,
		WarmupDays:  opts.WarmupDays,
		MeasureDays: opts.MeasureDays,
	}
	if opts.SurfFraction > 0 {
		so.Mixed = &sim.MixedSurfing{X: opts.SurfFraction}
	}
	if opts.MeasureTBP {
		so.TrackTBP = true
		so.RecycleProbe = true
		so.ImmortalProbe = true
	}
	s, err := sim.New(comm, pol, qs, so)
	if err != nil {
		return nil, err
	}
	res := s.Run()
	return &SimReport{
		QPC:               res.QPC,
		AbsoluteQPC:       res.AbsoluteQPC,
		TBPDays:           res.TBP.Mean,
		TBPObservations:   res.ProbesCompleted,
		UndiscoveredPages: res.MeanZeroAware,
		Days:              res.Days,
	}, nil
}

// Prediction is the analytical model's steady-state forecast (§5).
type Prediction struct {
	// QPC is the normalized quality-per-click the model predicts.
	QPC float64
	// TBPDays is the expected time for a page of quality TopQuality to
	// become popular.
	TBPDays float64
	// TopQuality is the quality the TBP prediction refers to.
	TopQuality float64
	// UndiscoveredPages is the predicted steady-state count of
	// zero-awareness pages.
	UndiscoveredPages float64
	// Converged reports whether the fixed-point solver met tolerance.
	Converged bool
}

// Predict solves the §5 analytical model for the community and policy
// under the paper's default quality distribution.
func Predict(comm Community, pol Policy) (*Prediction, error) {
	qs := quality.DeterministicWithTop(quality.Default(), comm.Pages)
	buckets := quality.Buckets(qs, 40)
	mdl, err := analytic.Solve(comm, pol, buckets)
	if err != nil {
		return nil, err
	}
	top := quality.DefaultMax
	return &Prediction{
		QPC:               mdl.QPC(),
		TBPDays:           mdl.TBP(top),
		TopQuality:        top,
		UndiscoveredPages: mdl.ExpectedZeroAware(),
		Converged:         mdl.Converged(),
	}, nil
}

// LiveStudyConfig configures the Appendix A joke-site study.
type LiveStudyConfig = livestudy.Config

// LiveStudyResult is the study outcome (Figure 1's two bars plus the
// rank-bias verification of A.2).
type LiveStudyResult = livestudy.Result

// RunLiveStudy executes the Appendix A study.
func RunLiveStudy(cfg LiveStudyConfig) (*LiveStudyResult, error) {
	return livestudy.Run(cfg)
}

// FigureOptions scales figure reproduction runs.
type FigureOptions = experiments.Options

// FigureTable is a reproduced figure: rows, chartable series and notes.
type FigureTable = experiments.Table

// ReproduceFigure regenerates one of the paper's figures by ID (fig1,
// fig2, fig3, fig4a, fig4b, fig5, fig6, fig7a–fig7d, fig8, rec).
func ReproduceFigure(id string, opts FigureOptions) (*FigureTable, error) {
	r, ok := experiments.ByID(id)
	if !ok {
		return nil, fmt.Errorf("shuffledeck: unknown figure %q", id)
	}
	return r.Run(opts)
}

// Figures lists the available figure IDs in paper order.
func Figures() []string {
	var ids []string
	for _, r := range experiments.All() {
		ids = append(ids, r.ID)
	}
	return ids
}

// LiveLimits groups a Live corpus's admission-control knobs: rate
// limiting and click-provenance defenses.
type LiveLimits = serve.Limits

// LiveDurability groups a Live corpus's persistence knobs: data
// directory, snapshot cadence, fsync policy, log retention. The zero
// value keeps the corpus in-memory only.
type LiveDurability = serve.Durability

// LiveOptions sizes a Live corpus. The zero value of every field selects
// a default (4 shards, top-128 snapshots, the recommended policy).
// Admission and persistence knobs live in the Limits and Durability
// groups.
type LiveOptions struct {
	// Shards is the number of popularity shards pages hash into.
	Shards int
	// TopK is each shard's deterministic top-list snapshot length.
	TopK int
	// Policy is the promotion policy applied to every ranking when no
	// Arms are declared.
	Policy Policy
	// Arms declares named experiment arms with traffic weights; requests
	// are A/B-assigned across them (stable per unit ID). Overrides
	// Policy when non-empty.
	Arms []LiveArm
	// Seed drives all service randomness.
	Seed uint64

	// Limits groups the admission-control knobs; Durability groups the
	// persistence knobs.
	Limits     LiveLimits
	Durability LiveDurability
}

// LiveArm declares one experiment arm of a Live corpus.
type LiveArm = serve.Arm

// LiveArmReport is one arm's accounting: requests, attributed
// impressions/clicks, zero-awareness discoveries and mean
// time-to-first-click.
type LiveArmReport = serve.ArmReport

// LiveEvent is one slot-level feedback observation for a Live corpus:
// the page, the 1-based position it was served at, and how many
// impressions and clicks it received there.
type LiveEvent = serve.Event

// LiveResult is one served result slot.
type LiveResult = serve.Result

// LiveStat is a page's current serving state.
type LiveStat = serve.Stat

// LiveStats is corpus-wide serving accounting.
type LiveStats = serve.Stats

// Live is a thread-safe online corpus: documents are indexed into
// popularity shards, Rank serves independently randomized result lists
// under the configured promotion policy, and Feedback folds real
// impression/click telemetry back into popularity and awareness — a
// page's first click promotes it out of the zero-awareness pool, the
// closed loop the paper argues a live engine should run. Rankings read
// epoch-swapped shard snapshots lock-free; feedback flows through one
// single-writer apply loop per shard. All methods are safe for
// concurrent use, except that Add, Feedback and Sync must not race with
// or follow Close.
type Live struct {
	c *serve.Corpus
}

// NewLive builds an empty live corpus and starts its shard apply loops.
// Close it when done.
func NewLive(opts LiveOptions) (*Live, error) {
	c, err := serve.NewCorpus(serve.Config{
		Shards:     opts.Shards,
		TopK:       opts.TopK,
		Policy:     opts.Policy,
		Arms:       opts.Arms,
		Seed:       opts.Seed,
		Limits:     opts.Limits,
		Durability: opts.Durability,
	})
	if err != nil {
		return nil, err
	}
	return &Live{c: c}, nil
}

// Add indexes a document. Popularity zero places the page in the
// zero-awareness promotion pool; a positive score marks it already
// explored. The page becomes servable once its shard applies the
// addition (Sync forces that).
func (l *Live) Add(id int, text string, popularity float64) error {
	return l.c.Add(id, text, popularity)
}

// Feedback enqueues slot-level impressions and clicks for asynchronous
// application. It blocks only under backpressure (a full shard queue).
// On a durable corpus a nil return is the durability promise (the batch
// committed to every target shard's WAL); a non-nil error means a WAL
// commit failed and the batch was not applied there — retry once Health
// clears (re-delivery to already-committed shards is at-least-once).
func (l *Live) Feedback(events []LiveEvent) error { return l.c.Feedback(events) }

// TryFeedback is Feedback without blocking: when a target shard's
// feedback queue is full it returns serve.ErrOverloaded immediately and
// nothing is enqueued anywhere, so the whole batch is safe to retry.
func (l *Live) TryFeedback(events []LiveEvent) error { return l.c.TryFeedback(events) }

// Rank serves at most n results for the query (empty = whole corpus),
// independently randomized per call under the corpus policy.
func (l *Live) Rank(query string, n int) ([]LiveResult, error) { return l.c.Rank(query, n) }

// RankSeeded is Rank with caller-controlled randomness, for reproducible
// tests.
func (l *Live) RankSeeded(query string, n int, seed uint64) ([]LiveResult, error) {
	return l.c.RankSeeded(query, n, seed)
}

// RankUnit serves a request on behalf of an experiment unit (user or
// session ID): the unit hashes deterministically to one of the declared
// arms, and the serving arm's name is returned for feedback attribution
// (set it on the LiveEvents the unit generates).
func (l *Live) RankUnit(unit, query string, n int) ([]LiveResult, string, error) {
	return l.c.RankUnit(unit, query, n)
}

// Arms reports each experiment arm's accounting, in declaration order.
func (l *Live) Arms() []LiveArmReport { return l.c.Arms() }

// Top returns the deterministic (promotion-free) global top-n explored
// pages — the ranking a conventional engine would serve.
func (l *Live) Top(n int) []LiveStat { return l.c.Top(n) }

// Page returns a page's current serving state.
func (l *Live) Page(id int) (LiveStat, bool) { return l.c.Page(id) }

// Sync blocks until all previously enqueued additions and feedback have
// been applied and published.
func (l *Live) Sync() { l.c.Sync() }

// Stats aggregates corpus-wide accounting (O(pages); telemetry, not a
// hot path).
func (l *Live) Stats() LiveStats { return l.c.Stats() }

// LiveRecovery summarizes what NewLive recovered from the data dir.
type LiveRecovery = serve.RecoveryInfo

// Recovery reports what NewLive recovered at boot (zero for an
// in-memory corpus).
func (l *Live) Recovery() LiveRecovery { return l.c.Recovery() }

// LiveHealth is the corpus readiness and durability surface: per-shard
// feedback-queue depth and WAL lag.
type LiveHealth = serve.HealthReport

// Health reports queue depths and WAL lag per shard, read lock-free.
func (l *Live) Health() LiveHealth { return l.c.Health() }

// Close drains and stops the shard apply loops. The corpus remains
// readable afterwards.
func (l *Live) Close() { l.c.Close() }

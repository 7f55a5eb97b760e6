// Package livestudy reproduces the paper's real-world study (Appendix A,
// Figure 1): a joke/quotation site whose main page lists items in
// descending order of "funniness" votes, with two randomized user groups —
// a control group ranked strictly by popularity and a treatment group in
// which never-viewed items are inserted in random order starting at rank
// position 21 (selective promotion with k=21, r=1).
//
// The paper's 962 human volunteers are replaced by synthetic users whose
// click behaviour follows the rank-bias law F2(i) ∝ i^(−3/2) — the paper
// itself verified its volunteers obeyed exactly this law (A.2) — and who,
// on first viewing an item, vote "funny" with probability equal to the
// item's intrinsic funniness. Item funniness follows the PageRank-shaped
// power law the paper used to downsample its joke collection. Content
// rotation matches A.1: initial lifetimes uniform on [1, 30] days, every
// expired item replaced by a fresh one of equal funniness, identical
// rotation in both groups.
package livestudy

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/policy"
	"repro/internal/quality"
	"repro/internal/randutil"
	"repro/internal/stats"
)

// Config parameterizes the study. The zero value of any field selects the
// Appendix A default.
type Config struct {
	// Items live on the site at any time (default 1000).
	Items int
	// UsersPerGroup is the number of volunteers per group (default 481,
	// half of the paper's 962).
	UsersPerGroup int
	// DurationDays is the study length (default 45).
	DurationDays int
	// MeasureLastDays is the steady-state measurement window at the end
	// (default 15, after all original items have rotated out).
	MeasureLastDays int
	// ItemLifetimeDays is the rotation lifetime (default 30).
	ItemLifetimeDays int
	// SessionsPerUserPerDay is the probability a user visits the site on
	// a given day (default 0.5). In a session the user reads the list in
	// presented order down to a random page depth D with
	// P(D ≥ p) = p^(−3/2), rating every item they have not read before —
	// so aggregate visits per rank follow the paper's −3/2 law by
	// construction (A.2) while individual users cannot cherry-pick.
	SessionsPerUserPerDay float64
	// MaxSessionPages caps how deep any single session can go (default
	// 10 pages = 100 items). Without a cap the depth power law
	// occasionally produces a session that reads the entire site,
	// discovering every buried item at once — something no human
	// volunteer does, and enough to erase the entrenchment effect the
	// study measures. With the default calibration the study reproduces
	// Figure 1: funny-vote ratio ≈ 0.20 without promotion, ≈ 0.35 with,
	// a ≈ +60–80% improvement.
	MaxSessionPages int
	// Promotion is the treatment group's policy (default selective,
	// k=21, r=1 — the paper's variant). The coin rule (uniform) is
	// refused: the study pools only zero-awareness items.
	Promotion policy.Spec
	// Funniness is the item quality distribution (default the
	// PageRank-shaped power law).
	Funniness quality.Distribution
	// Seed drives all randomness.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Items <= 0 {
		c.Items = 1000
	}
	if c.UsersPerGroup <= 0 {
		c.UsersPerGroup = 481
	}
	if c.DurationDays <= 0 {
		c.DurationDays = 45
	}
	if c.MeasureLastDays <= 0 {
		c.MeasureLastDays = 15
	}
	if c.ItemLifetimeDays <= 0 {
		c.ItemLifetimeDays = 30
	}
	if c.SessionsPerUserPerDay <= 0 {
		c.SessionsPerUserPerDay = 0.5
	}
	if c.MaxSessionPages <= 0 {
		c.MaxSessionPages = 10
	}
	if c.Promotion == (policy.Spec{}) {
		c.Promotion = policy.Spec{Rule: policy.RuleSelective, K: 21, R: 1}
	}
	if c.Funniness == nil {
		c.Funniness = DefaultFunniness()
	}
	return c
}

// DefaultFunniness is the item-quality distribution: the PageRank-shaped
// power law the paper used to downsample its collection, but with a
// higher floor — the paper's items were jokes and quotations people chose
// to publish, not random web pages, and its measured funny-vote ratios
// (0.2–0.35) imply typical funniness far above web-page quality levels.
func DefaultFunniness() quality.Distribution {
	d, err := quality.NewPowerLaw(0.05, 0.9, quality.DefaultAlpha)
	if err != nil {
		panic("livestudy: default funniness invalid: " + err.Error())
	}
	return d
}

func (c Config) validate() error {
	if c.MeasureLastDays > c.DurationDays {
		return fmt.Errorf("livestudy: measurement window %d exceeds duration %d",
			c.MeasureLastDays, c.DurationDays)
	}
	if err := c.Promotion.Validate(); err != nil {
		return err
	}
	// stepDay pools only zero-awareness items; a coin rule would run the
	// treatment deterministically without a word.
	if c.Promotion.Selection() == policy.SelectCoin {
		return fmt.Errorf("livestudy: promotion rule %q pools by coin; the study runs only zero-awareness (selective) promotion", c.Promotion.Rule)
	}
	return nil
}

// GroupResult reports one user group's outcome.
type GroupResult struct {
	FunnyVotes int
	TotalVotes int
	// FunnyRatio is the paper's Figure 1 metric: funny votes over total
	// votes during the measurement window.
	FunnyRatio float64
	// VisitsByRank[i] counts measurement-window visits to presented rank
	// position i+1, for the Appendix A.2 power-law verification.
	VisitsByRank []int
	// Diagnostics over the measurement window: votes and quality mass by
	// source (promoted pool slot vs deterministic slot), and the mean
	// promotion-pool size.
	VotesOnPromoted   int
	QualityOnPromoted float64 // sum of voted-item funniness, promoted
	VotesOnRanked     int
	QualityOnRanked   float64 // sum of voted-item funniness, deterministic
	MeanPoolSize      float64
}

// RankBiasExponent fits a power law to the group's rank-versus-visits
// relationship (A.2); the paper measured an exponent remarkably close to
// −3/2. Counts are aggregated per result page (group of ten ranks) and
// regressed against the page number — the granularity at which the
// AltaVista law was originally measured ([14]) — which also suppresses
// the Poisson noise of sparse tail ranks.
func (g GroupResult) RankBiasExponent() (exponent, r2 float64, err error) {
	var xs, ys []float64
	for start := 0; start+10 <= len(g.VisitsByRank); start += 10 {
		sum := 0
		for i := start; i < start+10; i++ {
			sum += g.VisitsByRank[i]
		}
		if sum > 0 {
			xs = append(xs, float64(start/10)+1) // page number
			ys = append(ys, float64(sum)/10)
		}
	}
	exponent, _, r2, err = stats.FitPowerLaw(xs, ys)
	return exponent, r2, err
}

// Result is the full study outcome.
type Result struct {
	Control   GroupResult // strict popularity ranking
	Treatment GroupResult // with rank promotion
	// Improvement is Treatment.FunnyRatio / Control.FunnyRatio − 1; the
	// paper reports approximately +60%.
	Improvement float64
}

// group holds one user group's independent site state.
type group struct {
	votes  []int // funny votes per item (the popularity measure)
	viewed []int // distinct users who viewed each item
	birth  []int
	seen   []bitset // per-user viewed-item sets
	ranked []int    // yesterday's ranking (item indices)
	pol    policy.Spec

	funny, total int
	visitsByRank []int
	sessionBuf   []int

	votesPromoted, votesRanked int
	qualPromoted, qualRanked   float64
	poolSizeSum                int
	poolDays                   int
}

type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }
func (b bitset) get(i int) bool {
	return b[i/64]&(1<<(uint(i)%64)) != 0
}
func (b bitset) set(i int) { b[i/64] |= 1 << (uint(i) % 64) }

// Run executes the study and returns both groups' outcomes.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := cfg.Items
	rng := randutil.New(cfg.Seed)

	funniness := quality.DeterministicWithTop(cfg.Funniness, n)
	// Shuffle so item index does not encode quality rank.
	rng.Shuffle(n, func(i, j int) { funniness[i], funniness[j] = funniness[j], funniness[i] })

	// Shared rotation schedule: expiry day per item (A.1: initial
	// lifetimes uniform on [1, lifetime]).
	expiry := make([]int, n)
	for i := range expiry {
		expiry[i] = 1 + rng.Intn(cfg.ItemLifetimeDays)
	}

	control := newGroup(cfg, n, policy.Spec{Rule: policy.RuleNone})
	treatment := newGroup(cfg, n, cfg.Promotion)

	for day := 0; day < cfg.DurationDays; day++ {
		measuring := day >= cfg.DurationDays-cfg.MeasureLastDays
		// Rotation first: expired items are replaced in both groups.
		for i := range expiry {
			if expiry[i] == day {
				expiry[i] = day + cfg.ItemLifetimeDays
				control.resetItem(i, day)
				treatment.resetItem(i, day)
			}
		}
		control.stepDay(cfg, funniness, rng, day, measuring)
		treatment.stepDay(cfg, funniness, rng, day, measuring)
	}

	res := &Result{
		Control:   control.result(),
		Treatment: treatment.result(),
	}
	if res.Control.FunnyRatio > 0 {
		res.Improvement = res.Treatment.FunnyRatio/res.Control.FunnyRatio - 1
	}
	return res, nil
}

func newGroup(cfg Config, n int, pol policy.Spec) *group {
	g := &group{
		votes:        make([]int, n),
		viewed:       make([]int, n),
		birth:        make([]int, n),
		pol:          pol,
		visitsByRank: make([]int, n),
	}
	for i := range g.birth {
		// Initial items predate the study: stagger ages so the ranking
		// tie-break has a well-defined order.
		g.birth[i] = -1 - i
	}
	g.seen = make([]bitset, cfg.UsersPerGroup)
	for u := range g.seen {
		g.seen[u] = newBitset(n)
	}
	g.ranked = make([]int, n)
	for i := range g.ranked {
		g.ranked[i] = i
	}
	g.rerank()
	return g
}

// resetItem installs a fresh item of the same funniness in slot i.
func (g *group) resetItem(i, day int) {
	g.votes[i] = 0
	g.viewed[i] = 0
	g.birth[i] = day
	for _, s := range g.seen {
		if s.get(i) {
			s[i/64] &^= 1 << (uint(i) % 64)
		}
	}
}

// rerank sorts items by funny votes descending, age ascending (older
// first — A.1 footnote 6).
func (g *group) rerank() {
	sort.Slice(g.ranked, func(a, b int) bool {
		ia, ib := g.ranked[a], g.ranked[b]
		if g.votes[ia] != g.votes[ib] {
			return g.votes[ia] > g.votes[ib]
		}
		if g.birth[ia] != g.birth[ib] {
			return g.birth[ia] < g.birth[ib]
		}
		return ia < ib
	})
}

// stepDay serves one day of traffic to the group.
func (g *group) stepDay(cfg Config, funniness []float64,
	rng *randutil.RNG, day int, measuring bool) {
	// Build today's presentation from yesterday's votes.
	var det, pool []int
	if g.pol.Selection() == policy.SelectUnexplored {
		for _, it := range g.ranked {
			if g.viewed[it] == 0 {
				pool = append(pool, it)
			} else {
				det = append(det, it)
			}
		}
	} else {
		det = g.ranked
	}
	k, r := g.pol.Params(policy.State{Pages: len(g.ranked), ZeroAware: len(pool)})
	res, err := policy.NewResolver(policy.Slice(det), policy.Slice(pool), k, r)
	if err != nil {
		panic("livestudy: resolver: " + err.Error())
	}
	inPool := make(map[int]bool, len(pool))
	for _, it := range pool {
		inPool[it] = true
	}
	if measuring {
		g.poolSizeSum += len(pool)
		g.poolDays++
	}

	n := res.Total()
	maxPages := (n + 9) / 10
	if maxPages > cfg.MaxSessionPages {
		maxPages = cfg.MaxSessionPages
	}
	for u := 0; u < cfg.UsersPerGroup; u++ {
		if !rng.Bernoulli(cfg.SessionsPerUserPerDay) {
			continue
		}
		// Session: materialize this user's presented list (the study
		// re-shuffled promoted items per user) and read pages 1..D in
		// order, rating every not-yet-read item.
		g.sessionBuf = res.Materialize(rng, g.sessionBuf[:0])
		depth := samplePageDepth(rng, maxPages)
		limit := depth * 10
		if limit > n {
			limit = n
		}
		for pos := 1; pos <= limit; pos++ {
			item := g.sessionBuf[pos-1]
			if measuring {
				g.visitsByRank[pos-1]++
			}
			g.viewed[item]++
			if g.seen[u].get(item) {
				continue
			}
			g.seen[u].set(item)
			// First read: the user rates the item (buttons disappear
			// afterwards, A.1).
			if rng.Bernoulli(funniness[item]) {
				g.votes[item]++
				if measuring {
					g.funny++
				}
			}
			if measuring {
				g.total++
				if inPool[item] {
					g.votesPromoted++
					g.qualPromoted += funniness[item]
				} else {
					g.votesRanked++
					g.qualRanked += funniness[item]
				}
			}
		}
	}
	g.rerank()
}

// samplePageDepth draws the session's page depth D with
// P(D ≥ p) = p^(−3/2), truncated to maxPages, by inverting the tail
// function.
func samplePageDepth(rng *randutil.RNG, maxPages int) int {
	u := rng.Float64()
	if u <= 0 {
		return maxPages
	}
	d := int(math.Pow(u, -2.0/3.0))
	if d < 1 {
		d = 1
	}
	if d > maxPages {
		d = maxPages
	}
	return d
}

func (g *group) result() GroupResult {
	r := GroupResult{
		FunnyVotes:        g.funny,
		TotalVotes:        g.total,
		VisitsByRank:      g.visitsByRank,
		VotesOnPromoted:   g.votesPromoted,
		QualityOnPromoted: g.qualPromoted,
		VotesOnRanked:     g.votesRanked,
		QualityOnRanked:   g.qualRanked,
	}
	if g.total > 0 {
		r.FunnyRatio = float64(g.funny) / float64(g.total)
	}
	if g.poolDays > 0 {
		r.MeanPoolSize = float64(g.poolSizeSum) / float64(g.poolDays)
	}
	return r
}

// Package sim implements the paper's Web-community simulator (§6.2):
// an evolving ranked list of pages receiving rank-biased user visits.
//
// Time advances in one-day steps. During a day the ranking is frozen (the
// engine "measures popularity at the end of each interval", §3.1): the
// day's monitored visits are sampled by rank position from the attention
// law F2 and resolved to pages through the active promotion scheme, page
// awareness rises as unaware monitored users make visits, and pages retire
// and are replaced by Poisson page death. At day end all popularity
// changes are applied to the ranking structures at once.
//
// The simulator keeps every page in a single order-statistic treap keyed
// by (popularity desc, age asc). Because quality is strictly positive,
// popularity is zero exactly when awareness is zero, so under selective
// promotion the deterministic list is the treap's top block and the
// promotion pool is its bottom block — no per-day list building is needed,
// and the policy.Resolver answers position lookups in O(1) without
// materializing result lists, with a fresh randomization per query.
// Uniform promotion resamples pool membership once per day (a documented
// simplification; expectations are unchanged versus per-query pools) but
// still re-randomizes the merge per query through the same resolver —
// reusing one materialized list for a whole day would clump that day's
// visits onto whichever pool page drew a top slot and suppress
// exploration.
//
// Section 8 mixed surfing is supported: each visit goes through the search
// engine with probability 1−x, follows popularity-proportional links with
// probability x·(1−c) (via a Fenwick tree over popularity), and teleports
// uniformly with probability x·c.
package sim

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/attention"
	"repro/internal/community"
	"repro/internal/fenwick"
	"repro/internal/policy"
	"repro/internal/randutil"
	"repro/internal/rankengine"
	"repro/internal/stats"
)

// MixedSurfing configures the Section 8 browsing mix.
type MixedSurfing struct {
	// X is the fraction of random surfing; 0 means all visits go through
	// the search engine, 1 means pure random surfing.
	X float64
	// C is the teleportation probability (0.15 in the paper). Zero means
	// the default.
	C float64
}

func (ms MixedSurfing) teleport() float64 {
	if ms.C == 0 {
		return 0.15
	}
	return ms.C
}

// snapshotEvery is how often, in days, the expected-QPC snapshot of the
// presented list is taken: every 10 days.
const snapshotEvery = 10

// Options tunes a simulation run.
type Options struct {
	// Seed drives all randomness; runs are reproducible per seed.
	Seed uint64
	// WarmupDays before measurement. Zero selects 2× the expected page
	// lifetime, enough for the awareness distribution to reach steady
	// state.
	WarmupDays int
	// MeasureDays of steady-state measurement. Zero selects 1× lifetime.
	MeasureDays int
	// Mixed enables the Section 8 mixed surfing model when non-nil.
	Mixed *MixedSurfing
	// TrackTBP enables time-to-become-popular probing of the
	// highest-quality page slot.
	TrackTBP bool
	// RecycleProbe retires the probe page as soon as it completes a TBP
	// observation, so one long run yields many observations.
	RecycleProbe bool
	// ImmortalProbe shields the probe page from natural retirement, so
	// TBP observations are never censored by page death. This matches
	// the analytical TBP definition (expected first-passage time of the
	// awareness chain); without it, completed observations are biased
	// toward lucky fast climbs whenever TBP is comparable to the page
	// lifetime.
	ImmortalProbe bool
	// PopularLongevity, when above 1, makes popular pages live longer:
	// a page at awareness fraction a survives a death draw with
	// probability 1/(1 + (PopularLongevity−1)·a), so a fully-aware page
	// lives up to PopularLongevity times as long. This models the
	// paper's footnote 1 conjecture ("lifetime might be positively
	// correlated with popularity ... leading to even worse TBP").
	// Values at or below 1 disable the effect.
	PopularLongevity float64
}

func (o Options) withDefaults(comm community.Config) Options {
	if o.WarmupDays <= 0 {
		o.WarmupDays = int(2 * comm.LifetimeDays)
	}
	if o.MeasureDays <= 0 {
		o.MeasureDays = int(comm.LifetimeDays)
	}
	return o
}

// Result summarizes a simulation run.
type Result struct {
	// QPC is normalized expected quality-per-click: snapshot-based,
	// divided by the quality-ordering ideal (1.0 = ideal, §6.3).
	QPC float64
	// QPCRealized is the normalized QPC of the actually sampled monitored
	// visits — noisier, but includes every stochastic effect.
	QPCRealized float64
	// AbsoluteQPC is the unnormalized snapshot QPC (Figure 8's y-axis).
	AbsoluteQPC float64
	// IdealQPC is the normalization constant.
	IdealQPC float64
	// TBP summarizes completed time-to-become-popular observations
	// (days), when TrackTBP was set.
	TBP stats.Summary
	// ProbesStarted and ProbesCompleted count TBP observations; censored
	// probes (page died first) are started but not completed.
	ProbesStarted   int
	ProbesCompleted int
	// MeanZeroAware is the average number of zero-awareness pages over
	// the measurement window.
	MeanZeroAware float64
	// Days actually simulated (warmup + measurement).
	Days int
}

// Simulator is a single-community simulation. Construct with New; drive
// with Run (or StepDay for fine-grained control).
type Simulator struct {
	comm   community.Config
	policy policy.Spec
	opts   Options
	rng    *randutil.RNG
	// snapRng drives measurement-only randomness (snapshot merges) so
	// that observing the system does not perturb its dynamics stream.
	snapRng *randutil.RNG
	att     *attention.Model

	n, m    int
	v       float64 // monitored visits/day
	lambda  float64
	quality []float64
	aware   []int
	birth   []int
	treap   *rankengine.Treap
	pop     *fenwick.Tree // popularity weights; nil unless mixed surfing
	zero    int           // count of zero-awareness pages
	day     int

	dirty     []int
	dirtyFlag []bool

	idealQPC float64
	meanQ    float64

	// Diagnostics: lifetime counters of monitored visits and how many of
	// them landed on zero-awareness pages (exploration volume), plus page
	// replacements.
	zeroVisits  int64
	totalVisits int64
	deathCount  int64

	// probe state
	probeIdx    int
	probeTarget int
	probeActive bool
	// probeHoldDay suppresses awareness gain for the probe during the
	// day it was recycled: the ranking is frozen intra-day, so without
	// the hold a just-retired probe would keep occupying its old top
	// positions and instantly re-accumulate awareness, corrupting TBP.
	probeHoldDay int

	// accumulators (measurement phase only)
	measuring   bool
	snapNum     float64
	snapCount   int
	realizedSum float64
	realizedN   int
	zeroSum     float64
	zeroDays    int
	tbpSamples  []float64
	probesStart int
	probesDone  int
	snapMerge   policy.Scratch
	rankedBuf   []rankengine.Entry
	detBuf      []int
	poolBuf     []int
}

// New validates the configuration and builds a simulator driven by pol
// through the same merge engine the online serving path runs.
// State-dependent policies (epsilon-decay) see a fresh State{Pages,
// ZeroAware} at the start of every simulated day. qualities must contain
// exactly comm.Pages values in (0, 1].
func New(comm community.Config, pol policy.Spec, qualities []float64, opts Options) (*Simulator, error) {
	if err := comm.Validate(); err != nil {
		return nil, err
	}
	if err := pol.Validate(); err != nil {
		return nil, err
	}
	if len(qualities) != comm.Pages {
		return nil, fmt.Errorf("sim: %d qualities for %d pages", len(qualities), comm.Pages)
	}
	if opts.Mixed != nil {
		if opts.Mixed.X < 0 || opts.Mixed.X > 1 {
			return nil, fmt.Errorf("sim: mixed surfing fraction %v outside [0,1]", opts.Mixed.X)
		}
		if opts.Mixed.C < 0 || opts.Mixed.C > 1 {
			return nil, fmt.Errorf("sim: teleport probability %v outside [0,1]", opts.Mixed.C)
		}
	}
	att, err := attention.NewModel(comm.Pages, comm.MonitoredVisitsPerDay(), comm.Exponent())
	if err != nil {
		return nil, err
	}
	s := &Simulator{
		comm:   comm,
		policy: pol,
		opts:   opts.withDefaults(comm),
		rng:    randutil.New(opts.Seed),
		att:    att,
		n:      comm.Pages,
		m:      comm.MonitoredUsers,
		v:      comm.MonitoredVisitsPerDay(),
		lambda: comm.RetirementRate(),
	}
	s.quality = make([]float64, s.n)
	copy(s.quality, qualities)
	s.aware = make([]int, s.n)
	s.birth = make([]int, s.n)
	s.dirtyFlag = make([]bool, s.n)
	s.treap = rankengine.New(opts.Seed ^ 0x5eed)
	probeQ := 0.0
	for i, q := range s.quality {
		if q <= 0 || q > 1 {
			return nil, fmt.Errorf("sim: quality[%d] = %v outside (0,1]", i, q)
		}
		// Stagger initial births across one lifetime so the age
		// distribution starts near steady state.
		s.birth[i] = -s.rng.Intn(int(comm.LifetimeDays) + 1)
		s.treap.Insert(rankengine.Entry{ID: i, Popularity: 0, BirthDay: s.birth[i]})
		if q > probeQ {
			probeQ = q
			s.probeIdx = i
		}
		s.meanQ += q
	}
	s.meanQ /= float64(s.n)
	s.zero = s.n
	s.probeTarget = int(math.Ceil(0.99 * float64(s.m)))
	if s.probeTarget < 1 {
		s.probeTarget = 1
	}
	if opts.TrackTBP {
		s.probeActive = true
		// Give the probe a well-defined birth at day 0 so its first
		// observation is not skewed by the staggered initial ages.
		s.birth[s.probeIdx] = 0
		s.treap.Update(rankengine.Entry{ID: s.probeIdx, Popularity: 0, BirthDay: 0})
	}
	if opts.Mixed != nil && opts.Mixed.X > 0 {
		s.pop = fenwick.New(s.n)
	}
	s.snapRng = s.rng.Split()
	s.idealQPC = s.computeIdealQPC()
	return s, nil
}

// computeIdealQPC returns the F2-weighted mean quality with pages sorted
// by true quality descending: the paper's QPC normalization constant.
func (s *Simulator) computeIdealQPC() float64 {
	sorted := append([]float64(nil), s.quality...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	num := 0.0
	for i, q := range sorted {
		num += s.att.VisitRate(i+1) * q
	}
	total := s.att.Visits()
	if total == 0 {
		return 0
	}
	return num / total
}

// popularity returns the current popularity of page idx.
func (s *Simulator) popularity(idx int) float64 {
	return float64(s.aware[idx]) / float64(s.m) * s.quality[idx]
}

// treapWindow adapts a contiguous rank range of the treap to policy.Source.
type treapWindow struct {
	t      *rankengine.Treap
	offset int // 0-based start rank
	length int
}

func (w treapWindow) Len() int { return w.length }
func (w treapWindow) At(i int) int {
	e, ok := w.t.Select(w.offset + i + 1)
	if !ok {
		panic(fmt.Sprintf("sim: treap window select %d out of range", w.offset+i+1))
	}
	return e.ID
}

// rankWindows splits the treap's ranking at rank split into the ranks
// above it and the ranks from it on. A snapshot day materializes the
// whole list, so it reads the treap once in rank order; any other day
// resolves only the positions its visits land on, one Select each.
func (s *Simulator) rankWindows(split int, whole bool) (above, below policy.Source) {
	if !whole {
		return treapWindow{t: s.treap, length: split},
			treapWindow{t: s.treap, offset: split, length: s.n - split}
	}
	ranked := s.treap.AppendRanked(s.rankedBuf[:0])
	s.rankedBuf = ranked
	ids := s.detBuf[:0]
	for _, e := range ranked {
		ids = append(ids, e.ID)
	}
	s.detBuf = ids
	return policy.Slice(ids[:split]), policy.Slice(ids[split:])
}

// buildPresenter constructs the day's position resolver from the frozen
// ranking state; whole says the day's list will be materialized (a
// snapshot day). The policy's merge parameters are re-read every day, so
// state-dependent policies (epsilon-decay) anneal as the community's
// zero-awareness count moves.
func (s *Simulator) buildPresenter(whole bool) *policy.Resolver {
	k, r := s.policy.Params(policy.State{Pages: s.n, ZeroAware: s.zero})
	var det, pool policy.Source
	switch s.policy.Selection() {
	case policy.SelectUnexplored:
		// Quality is strictly positive, so popularity is zero exactly when
		// awareness is zero: the deterministic list is the treap's top
		// block and the promotion pool its bottom block.
		det, pool = s.rankWindows(s.n-s.zero, whole)
	case policy.SelectCoin:
		// Pool membership is resampled once per day (a documented
		// simplification), but the shuffle-and-merge is fresh per query
		// via the lazy resolver: materializing one list for the whole day
		// would clump the day's visits onto whichever pool page drew a
		// top slot, suppressing exploration (only the first visit to a
		// page converts a given user).
		ranked := s.treap.AppendRanked(s.rankedBuf[:0])
		s.rankedBuf = ranked
		detIDs := s.detBuf[:0]
		poolIDs := s.poolBuf[:0]
		for _, e := range ranked {
			if s.rng.Bernoulli(r) {
				poolIDs = append(poolIDs, e.ID)
			} else {
				detIDs = append(detIDs, e.ID)
			}
		}
		s.detBuf, s.poolBuf = detIDs, poolIDs
		det, pool = policy.Slice(detIDs), policy.Slice(poolIDs)
	default: // SelectNone
		det, _ = s.rankWindows(s.n, whole)
		k, r = 1, 0
	}
	res, err := policy.NewResolver(det, pool, k, r)
	if err != nil {
		panic("sim: resolver construction failed: " + err.Error())
	}
	return res
}

// StepDay advances the simulation by one day.
func (s *Simulator) StepDay() {
	// Expected-QPC snapshot from the frozen presented list.
	snapshot := s.measuring && s.day%snapshotEvery == 0
	pres := s.buildPresenter(snapshot)
	if snapshot {
		s.takeSnapshot(pres)
	}

	// Distribute today's monitored visits.
	nVisits := s.stochasticRound(s.v)
	var pSearch, pPop float64
	if s.opts.Mixed != nil {
		x := s.opts.Mixed.X
		c := s.opts.Mixed.teleport()
		pSearch = 1 - x
		pPop = x * (1 - c)
	} else {
		pSearch = 1
	}
	popTotal := 0.0
	if s.pop != nil {
		popTotal = s.pop.Total()
	}
	for i := 0; i < nVisits; i++ {
		var idx int
		u := s.rng.Float64()
		switch {
		case u < pSearch:
			pos := s.att.SampleRank(s.rng)
			idx = pres.PageAt(pos, s.rng)
		case u < pSearch+pPop && popTotal > 0:
			j, ok := s.pop.Sample(s.rng)
			if !ok {
				j = s.rng.Intn(s.n)
			}
			idx = j
		default:
			idx = s.rng.Intn(s.n)
		}
		s.visit(idx)
	}

	// Poisson page retirement. Under popularity-correlated longevity a
	// drawn victim survives with probability growing in its awareness
	// (rejection keeps per-page death rates exact).
	deaths := s.rng.Binomial(s.n, s.lambda)
	for i := 0; i < deaths; i++ {
		victim := s.rng.Intn(s.n)
		if s.opts.ImmortalProbe && victim == s.probeIdx {
			continue
		}
		if g := s.opts.PopularLongevity; g > 1 {
			a := float64(s.aware[victim]) / float64(s.m)
			if !s.rng.Bernoulli(1 / (1 + (g-1)*a)) {
				continue
			}
		}
		s.retire(victim)
		s.deathCount++
	}

	// Apply deferred popularity updates.
	for _, idx := range s.dirty {
		s.dirtyFlag[idx] = false
		e, ok := s.treap.Entry(idx)
		if !ok {
			continue
		}
		newPop := s.popularity(idx)
		if e.Popularity != newPop || e.BirthDay != s.birth[idx] {
			s.treap.Update(rankengine.Entry{ID: idx, Popularity: newPop, BirthDay: s.birth[idx]})
			if s.pop != nil {
				s.pop.Set(idx, newPop)
			}
		}
	}
	s.dirty = s.dirty[:0]

	if s.measuring {
		s.zeroSum += float64(s.zero)
		s.zeroDays++
	}
	s.day++
}

// visit processes one monitored visit to page idx.
func (s *Simulator) visit(idx int) {
	if s.aware[idx] == 0 {
		s.zeroVisits++
	}
	s.totalVisits++
	if s.measuring {
		s.realizedSum += s.quality[idx]
		s.realizedN++
	}
	if idx == s.probeIdx && s.day < s.probeHoldDay {
		// Recycled probe: invisible to awareness until the next ranking
		// interval.
		return
	}
	a := s.aware[idx]
	if a >= s.m {
		return
	}
	// The visiting monitored user is unaware with probability 1 − a/m.
	if !s.rng.Bernoulli(1 - float64(a)/float64(s.m)) {
		return
	}
	if a == 0 {
		s.zero--
	}
	s.aware[idx] = a + 1
	s.markDirty(idx)
	if s.opts.TrackTBP && idx == s.probeIdx && s.probeActive && s.aware[idx] >= s.probeTarget {
		s.completeProbe()
	}
}

// completeProbe records a TBP observation for the probe page. Only
// measurement-phase completions are recorded; warmup completions still
// recycle so the probe keeps producing observations.
func (s *Simulator) completeProbe() {
	if s.measuring {
		s.tbpSamples = append(s.tbpSamples, float64(s.day-s.birth[s.probeIdx]+1))
		s.probesDone++
	}
	s.probeActive = false
	if s.opts.RecycleProbe {
		s.retire(s.probeIdx)
	}
}

// retire replaces page idx with a fresh page of equal quality and zero
// awareness (§5.1).
func (s *Simulator) retire(idx int) {
	if s.aware[idx] > 0 {
		s.zero++
	}
	s.aware[idx] = 0
	s.birth[idx] = s.day
	s.markDirty(idx)
	if s.opts.TrackTBP && idx == s.probeIdx {
		// A new probe observation begins (previous one, if active, was
		// censored by page death). Hold the fresh incarnation out of
		// awareness until the next ranking interval.
		s.probeActive = true
		s.probeHoldDay = s.day + 1
		if s.measuring {
			s.probesStart++
		}
	}
}

func (s *Simulator) markDirty(idx int) {
	if !s.dirtyFlag[idx] {
		s.dirtyFlag[idx] = true
		s.dirty = append(s.dirty, idx)
	}
}

// stochasticRound converts a fractional daily budget into an integer count
// without bias.
func (s *Simulator) stochasticRound(x float64) int {
	base := math.Floor(x)
	n := int(base)
	if s.rng.Bernoulli(x - base) {
		n++
	}
	return n
}

// takeSnapshot accumulates the expected QPC of today's presented list:
// Σ F2(i)·Q(L[i]) / v for the search channel, blended with the
// popularity-proportional and teleport channels under mixed surfing.
func (s *Simulator) takeSnapshot(pres *policy.Resolver) {
	num := 0.0
	for i, idx := range pres.Materialize(s.snapRng, &s.snapMerge) {
		num += s.att.VisitRate(i+1) * s.quality[idx]
	}
	searchQ := num / s.att.Visits()
	day := searchQ
	if s.opts.Mixed != nil {
		x := s.opts.Mixed.X
		c := s.opts.Mixed.teleport()
		popQ := s.meanQ
		var popMass, popNum float64
		for idx := 0; idx < s.n; idx++ {
			p := s.popularity(idx)
			popMass += p
			popNum += p * s.quality[idx]
		}
		if popMass > 0 {
			popQ = popNum / popMass
		}
		day = (1-x)*searchQ + x*(1-c)*popQ + x*c*s.meanQ
	}
	s.snapNum += day
	s.snapCount++
}

// Run executes warmup then measurement and returns the results.
func (s *Simulator) Run() *Result {
	for d := 0; d < s.opts.WarmupDays; d++ {
		s.StepDay()
	}
	s.measuring = true
	if s.opts.TrackTBP && s.probeActive {
		s.probesStart++
	}
	for d := 0; d < s.opts.MeasureDays; d++ {
		s.StepDay()
	}
	s.measuring = false
	return s.result()
}

func (s *Simulator) result() *Result {
	res := &Result{
		IdealQPC:        s.idealQPC,
		ProbesStarted:   s.probesStart,
		ProbesCompleted: s.probesDone,
		Days:            s.day,
		TBP:             stats.Summarize(s.tbpSamples),
	}
	if s.snapCount > 0 {
		res.AbsoluteQPC = s.snapNum / float64(s.snapCount)
	}
	if s.idealQPC > 0 {
		res.QPC = res.AbsoluteQPC / s.idealQPC
		if s.realizedN > 0 {
			res.QPCRealized = s.realizedSum / float64(s.realizedN) / s.idealQPC
		}
	}
	if s.zeroDays > 0 {
		res.MeanZeroAware = s.zeroSum / float64(s.zeroDays)
	}
	return res
}

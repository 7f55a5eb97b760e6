package sim

import (
	"math"
	"testing"

	"repro/internal/community"
	"repro/internal/policy"
	"repro/internal/quality"
	"repro/internal/rankengine"
	"repro/internal/stats"
)

// testCommunity is a scaled-down community that reaches steady state in a
// few hundred simulated days, keeping the suite fast.
func testCommunity() community.Config {
	return community.Config{
		Pages:             1000,
		Users:             100,
		MonitoredUsers:    20,
		TotalVisitsPerDay: 100,
		LifetimeDays:      120,
	}
}

func testQualities(n int) []float64 {
	return quality.DeterministicWithTop(quality.Default(), n)
}

func TestNewValidation(t *testing.T) {
	comm := testCommunity()
	qs := testQualities(comm.Pages)
	if _, err := New(community.Config{}, policy.Recommended(), qs, Options{}); err == nil {
		t.Error("invalid community accepted")
	}
	if _, err := New(comm, policy.Spec{Rule: policy.RuleSelective, K: 0}, qs, Options{}); err == nil {
		t.Error("invalid policy accepted")
	}
	if _, err := New(comm, policy.Recommended(), qs[:10], Options{}); err == nil {
		t.Error("quality count mismatch accepted")
	}
	bad := append([]float64(nil), qs...)
	bad[0] = 0
	if _, err := New(comm, policy.Recommended(), bad, Options{}); err == nil {
		t.Error("zero quality accepted")
	}
	bad[0] = 1.5
	if _, err := New(comm, policy.Recommended(), bad, Options{}); err == nil {
		t.Error("quality > 1 accepted")
	}
	if _, err := New(comm, policy.Recommended(), qs, Options{Mixed: &MixedSurfing{X: 1.5}}); err == nil {
		t.Error("invalid surf fraction accepted")
	}
	if _, err := New(comm, policy.Recommended(), qs, Options{Mixed: &MixedSurfing{X: 0.5, C: -0.1}}); err == nil {
		t.Error("invalid teleport accepted")
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	comm := testCommunity()
	qs := testQualities(comm.Pages)
	opts := Options{Seed: 99, WarmupDays: 50, MeasureDays: 50}
	a, err := New(comm, policy.Recommended(), qs, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := New(comm, policy.Recommended(), qs, opts)
	ra, rb := a.Run(), b.Run()
	if ra.QPC != rb.QPC || ra.QPCRealized != rb.QPCRealized || ra.MeanZeroAware != rb.MeanZeroAware {
		t.Fatalf("same seed diverged: %+v vs %+v", ra, rb)
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	comm := testCommunity()
	qs := testQualities(comm.Pages)
	a, _ := New(comm, policy.Recommended(), qs, Options{Seed: 1, WarmupDays: 50, MeasureDays: 50})
	b, _ := New(comm, policy.Recommended(), qs, Options{Seed: 2, WarmupDays: 50, MeasureDays: 50})
	if a.Run().QPCRealized == b.Run().QPCRealized {
		t.Fatal("different seeds produced identical realized QPC")
	}
}

func TestAwarenessInvariants(t *testing.T) {
	comm := testCommunity()
	qs := testQualities(comm.Pages)
	s, err := New(comm, policy.Recommended(), qs, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 300; d++ {
		s.StepDay()
		if d%50 != 0 {
			continue
		}
		zero := 0
		for i := 0; i < comm.Pages; i++ {
			a := s.Awareness(i)
			if a < 0 || a > comm.MonitoredUsers {
				t.Fatalf("day %d: awareness[%d] = %d outside [0, m]", d, i, a)
			}
			if a == 0 {
				zero++
			}
		}
		if zero != s.ZeroAware() {
			t.Fatalf("day %d: zero counter %d, actual %d", d, s.ZeroAware(), zero)
		}
	}
}

func TestQPCWithinBounds(t *testing.T) {
	comm := testCommunity()
	qs := testQualities(comm.Pages)
	for _, pol := range []policy.Spec{
		{Rule: policy.RuleNone, K: 1},
		policy.Recommended(),
		{Rule: policy.RuleUniform, K: 1, R: 0.2},
	} {
		s, err := New(comm, pol, qs, Options{Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		res := s.Run()
		if res.QPC <= 0 || res.QPC > 1.02 {
			t.Errorf("%v: normalized QPC = %v outside (0, ~1]", pol, res.QPC)
		}
		if res.AbsoluteQPC <= 0 || res.AbsoluteQPC > res.IdealQPC*1.02 {
			t.Errorf("%v: absolute QPC %v vs ideal %v", pol, res.AbsoluteQPC, res.IdealQPC)
		}
		if res.QPCRealized <= 0 {
			t.Errorf("%v: realized QPC = %v", pol, res.QPCRealized)
		}
	}
}

// TestSelectivePromotionBeatsNone is the headline claim: selective
// randomized rank promotion improves QPC over deterministic ranking.
func TestSelectivePromotionBeatsNone(t *testing.T) {
	comm := testCommunity()
	qs := testQualities(comm.Pages)
	avgQPC := func(pol policy.Spec) float64 {
		var vals []float64
		for seed := uint64(0); seed < 5; seed++ {
			s, err := New(comm, pol, qs, Options{Seed: seed, MeasureDays: 600})
			if err != nil {
				t.Fatal(err)
			}
			vals = append(vals, s.Run().QPC)
		}
		return stats.Summarize(vals).Mean
	}
	none := avgQPC(policy.Spec{Rule: policy.RuleNone, K: 1})
	sel := avgQPC(policy.Recommended())
	if sel <= none {
		t.Fatalf("selective QPC %v should beat nonrandomized %v", sel, none)
	}
	// The paper reports substantial improvement; require at least 20%.
	if sel < 1.2*none {
		t.Errorf("improvement too small: %v vs %v", sel, none)
	}
}

func TestZeroAwareMatchesAnalyticOrder(t *testing.T) {
	// More randomization → fewer undiscovered pages.
	comm := testCommunity()
	qs := testQualities(comm.Pages)
	meanZ := func(pol policy.Spec) float64 {
		s, _ := New(comm, pol, qs, Options{Seed: 17, MeasureDays: 400})
		return s.Run().MeanZeroAware
	}
	zNone := meanZ(policy.Spec{Rule: policy.RuleNone, K: 1})
	zSel := meanZ(policy.Spec{Rule: policy.RuleSelective, K: 1, R: 0.2})
	if zSel >= zNone {
		t.Fatalf("selective z %v should be below nonrandomized z %v", zSel, zNone)
	}
}

func TestTBPProbes(t *testing.T) {
	comm := testCommunity()
	qs := testQualities(comm.Pages)
	s, err := New(comm, policy.Spec{Rule: policy.RuleSelective, K: 1, R: 0.3}, qs,
		Options{Seed: 5, TrackTBP: true, RecycleProbe: true, ImmortalProbe: true,
			WarmupDays: 100, MeasureDays: 2000})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.ProbesCompleted < 3 {
		t.Fatalf("only %d TBP observations in 2000 days under aggressive promotion", res.ProbesCompleted)
	}
	if res.TBP.Mean <= 0 {
		t.Fatalf("TBP mean = %v", res.TBP.Mean)
	}
	if res.TBP.Min < 1 {
		t.Fatalf("TBP min = %v, below 1 day", res.TBP.Min)
	}
}

func TestTBPFasterWithMoreRandomization(t *testing.T) {
	comm := testCommunity()
	qs := testQualities(comm.Pages)
	meanTBP := func(r float64) float64 {
		s, _ := New(comm, policy.Spec{Rule: policy.RuleSelective, K: 1, R: r}, qs,
			Options{Seed: 23, TrackTBP: true, RecycleProbe: true, ImmortalProbe: true,
				WarmupDays: 100, MeasureDays: 4000})
		res := s.Run()
		if res.ProbesCompleted == 0 {
			return math.Inf(1)
		}
		return res.TBP.Mean
	}
	fast := meanTBP(0.4)
	slow := meanTBP(0.05)
	if fast >= slow {
		t.Fatalf("TBP(r=0.4) = %v should beat TBP(r=0.05) = %v", fast, slow)
	}
}

func TestImmortalProbeNeverDies(t *testing.T) {
	comm := testCommunity()
	qs := testQualities(comm.Pages)
	s, _ := New(comm, policy.Spec{Rule: policy.RuleNone, K: 1}, qs,
		Options{Seed: 7, TrackTBP: true, ImmortalProbe: true, WarmupDays: 10, MeasureDays: 600})
	probe := s.ProbePage()
	res := s.Run()
	// Under nonrandomized ranking in a small community the probe may or
	// may not complete, but it must never be censored: starts stay at 1.
	if res.ProbesStarted > res.ProbesCompleted+1 {
		t.Fatalf("immortal probe restarted: %d started, %d completed",
			res.ProbesStarted, res.ProbesCompleted)
	}
	_ = probe
}

func TestVisitCountsAccumulate(t *testing.T) {
	comm := testCommunity()
	qs := testQualities(comm.Pages)
	s, _ := New(comm, policy.Recommended(), qs, Options{Seed: 9})
	days := 100
	for d := 0; d < days; d++ {
		s.StepDay()
	}
	total, toZero := s.VisitCounts()
	want := comm.MonitoredVisitsPerDay() * float64(days)
	if math.Abs(float64(total)-want) > 0.2*want {
		t.Fatalf("total visits %d, want ~%.0f", total, want)
	}
	if toZero <= 0 || toZero > total {
		t.Fatalf("zero-page visits %d of %d", toZero, total)
	}
}

func TestSelectiveExploresMoreThanNone(t *testing.T) {
	comm := testCommunity()
	qs := testQualities(comm.Pages)
	explore := func(pol policy.Spec) float64 {
		s, _ := New(comm, pol, qs, Options{Seed: 31})
		for d := 0; d < 400; d++ {
			s.StepDay()
		}
		total, toZero := s.VisitCounts()
		return float64(toZero) / float64(total)
	}
	if en, es := explore(policy.Spec{Rule: policy.RuleNone, K: 1}), explore(policy.Recommended()); es <= en {
		t.Fatalf("selective exploration share %v should beat none %v", es, en)
	}
}

func TestMixedSurfingPureSurfIgnoresPolicy(t *testing.T) {
	// With x = 1 no visit goes through the search engine, so the
	// promotion policy cannot influence the dynamics: same seed must
	// produce identical results.
	comm := testCommunity()
	qs := testQualities(comm.Pages)
	run := func(pol policy.Spec) *Result {
		s, err := New(comm, pol, qs,
			Options{Seed: 13, Mixed: &MixedSurfing{X: 1}, WarmupDays: 150, MeasureDays: 150})
		if err != nil {
			t.Fatal(err)
		}
		return s.Run()
	}
	a := run(policy.Spec{Rule: policy.RuleNone, K: 1})
	b := run(policy.Recommended())
	if a.AbsoluteQPC != b.AbsoluteQPC || a.MeanZeroAware != b.MeanZeroAware {
		t.Fatalf("pure surfing should be policy-independent: %+v vs %+v", a, b)
	}
	if a.AbsoluteQPC <= 0 {
		t.Fatal("pure-surf QPC not positive")
	}
}

func TestMixedSurfingTeleportExplores(t *testing.T) {
	// Teleportation visits pages uniformly, so pure surfing discovers far
	// more pages than pure nonrandomized search (the paper's observation
	// that random surfing reduces entrenchment, §8).
	comm := testCommunity()
	qs := testQualities(comm.Pages)
	surf, _ := New(comm, policy.Spec{Rule: policy.RuleNone, K: 1}, qs,
		Options{Seed: 13, Mixed: &MixedSurfing{X: 1}, WarmupDays: 200, MeasureDays: 200})
	search, _ := New(comm, policy.Spec{Rule: policy.RuleNone, K: 1}, qs,
		Options{Seed: 13, WarmupDays: 200, MeasureDays: 200})
	zSurf := surf.Run().MeanZeroAware
	zSearch := search.Run().MeanZeroAware
	if zSurf >= zSearch {
		t.Fatalf("pure surfing z %v should be below pure search z %v", zSurf, zSearch)
	}
}

func TestMixedSurfingDefaults(t *testing.T) {
	ms := MixedSurfing{X: 0.5}
	if ms.teleport() != 0.15 {
		t.Fatalf("default teleport = %v, want paper's 0.15", ms.teleport())
	}
	ms.C = 0.3
	if ms.teleport() != 0.3 {
		t.Fatalf("explicit teleport = %v", ms.teleport())
	}
}

func TestCountAbovePopularity(t *testing.T) {
	comm := testCommunity()
	qs := testQualities(comm.Pages)
	s, _ := New(comm, policy.Recommended(), qs, Options{Seed: 19})
	if got := s.CountAbovePopularity(0); got != 0 {
		t.Fatalf("before any visits, %d pages above popularity 0", got)
	}
	for d := 0; d < 200; d++ {
		s.StepDay()
	}
	above0 := s.CountAbovePopularity(0)
	if above0 != comm.Pages-s.ZeroAware() {
		t.Fatalf("pages above 0 = %d, want aware count %d", above0, comm.Pages-s.ZeroAware())
	}
	if s.CountAbovePopularity(0.1) > above0 {
		t.Fatal("count not monotone in threshold")
	}
}

func TestRunDayAccounting(t *testing.T) {
	comm := testCommunity()
	qs := testQualities(comm.Pages)
	s, _ := New(comm, policy.Recommended(), qs, Options{Seed: 1, WarmupDays: 30, MeasureDays: 40})
	res := s.Run()
	if res.Days != 70 {
		t.Fatalf("Days = %d, want 70", res.Days)
	}
	if s.Day() != 70 {
		t.Fatalf("Day() = %d", s.Day())
	}
}

func TestFractionalVisitBudget(t *testing.T) {
	comm := community.Config{
		Pages: 200, Users: 10, MonitoredUsers: 1,
		TotalVisitsPerDay: 5, LifetimeDays: 100,
	}
	// v = 5 * 1/10 = 0.5 visits/day: stochastic rounding must average out.
	qs := testQualities(comm.Pages)
	s, err := New(comm, policy.Recommended(), qs, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	days := 2000
	for d := 0; d < days; d++ {
		s.StepDay()
	}
	total, _ := s.VisitCounts()
	want := 0.5 * float64(days)
	if math.Abs(float64(total)-want) > 0.15*want {
		t.Fatalf("fractional budget: %d visits over %d days, want ~%.0f", total, days, want)
	}
}

func TestUniformRuleRuns(t *testing.T) {
	comm := testCommunity()
	qs := testQualities(comm.Pages)
	s, err := New(comm, policy.Spec{Rule: policy.RuleUniform, K: 2, R: 0.15}, qs,
		Options{Seed: 41, WarmupDays: 100, MeasureDays: 100})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.QPC <= 0 {
		t.Fatalf("uniform QPC = %v", res.QPC)
	}
}

func BenchmarkStepDayDefaultCommunity(b *testing.B) {
	comm := community.Default()
	qs := quality.DeterministicWithTop(quality.Default(), comm.Pages)
	s, err := New(comm, policy.Recommended(), qs, Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.StepDay()
	}
}

func TestPopularLongevityReducesChurn(t *testing.T) {
	comm := testCommunity()
	qs := testQualities(comm.Pages)
	run := func(g float64) int64 {
		s, err := New(comm, policy.Recommended(), qs, Options{Seed: 55, PopularLongevity: g})
		if err != nil {
			t.Fatal(err)
		}
		for d := 0; d < 400; d++ {
			s.StepDay()
		}
		return s.Deaths()
	}
	base := run(0)
	long := run(5)
	if long >= base {
		t.Fatalf("longevity=5 deaths %d should be below baseline %d", long, base)
	}
	if base == 0 {
		t.Fatal("baseline produced no deaths")
	}
}

func TestPopularLongevityProtectsPopularPages(t *testing.T) {
	// With strong longevity, pages that reach high awareness should be
	// older on average than under the baseline — the entrenchment the
	// paper's footnote 1 warns about.
	comm := testCommunity()
	qs := testQualities(comm.Pages)
	meanTopAge := func(g float64) float64 {
		s, err := New(comm, policy.Spec{Rule: policy.RuleNone, K: 1}, qs,
			Options{Seed: 77, PopularLongevity: g})
		if err != nil {
			t.Fatal(err)
		}
		for d := 0; d < 500; d++ {
			s.StepDay()
		}
		// Average age of pages above half awareness.
		sum, count := 0.0, 0
		for i := 0; i < comm.Pages; i++ {
			if s.Awareness(i) > comm.MonitoredUsers/2 {
				sum += float64(s.Day() - s.birth[i])
				count++
			}
		}
		if count == 0 {
			return 0
		}
		return sum / float64(count)
	}
	base := meanTopAge(0)
	long := meanTopAge(8)
	if long <= base {
		t.Fatalf("popular pages under longevity=8 mean age %v, want above baseline %v", long, base)
	}
}

// Day returns the current simulation day.
func (s *Simulator) Day() int { return s.day }

// Awareness returns the awareness count of page idx (testing hook).
func (s *Simulator) Awareness(idx int) int { return s.aware[idx] }

// ProbePage returns the index of the TBP probe page (the highest-quality
// page).
func (s *Simulator) ProbePage() int { return s.probeIdx }

// VisitCounts returns the lifetime number of monitored visits and how
// many landed on zero-awareness pages (the exploration volume).
func (s *Simulator) VisitCounts() (total, toZeroAware int64) {
	return s.totalVisits, s.zeroVisits
}

// Deaths returns the lifetime number of page replacements.
func (s *Simulator) Deaths() int64 { return s.deathCount }

// CountAbovePopularity returns how many pages currently exceed the given
// popularity — the empirical counterpart of the analytical rank function
// F1(x) − 1. The hypothetical entry is given the oldest possible birth so
// that equal-popularity pages (age tie-break) do not count.
func (s *Simulator) CountAbovePopularity(x float64) int {
	return s.treap.CountAbove(rankengine.Entry{ID: -1, Popularity: x, BirthDay: math.MinInt32})
}

package livestudy

import (
	"math"
	"strings"
	"testing"

	"repro/internal/policy"
	"repro/internal/quality"
	"repro/internal/randutil"
	"repro/internal/stats"
)

func TestDefaultsApplied(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Items != 1000 || c.UsersPerGroup != 481 || c.DurationDays != 45 ||
		c.MeasureLastDays != 15 || c.ItemLifetimeDays != 30 {
		t.Fatalf("defaults wrong: %+v", c)
	}
	if c.Promotion.Rule != policy.RuleSelective || c.Promotion.K != 21 || c.Promotion.R != 1 {
		t.Fatalf("default promotion %+v, want the paper's k=21 r=1 variant", c.Promotion)
	}
	if c.Funniness == nil || c.MaxSessionPages != 10 {
		t.Fatalf("defaults wrong: %+v", c)
	}
}

func TestValidation(t *testing.T) {
	if _, err := Run(Config{DurationDays: 10, MeasureLastDays: 20}); err == nil {
		t.Error("measurement window longer than study accepted")
	}
	if _, err := Run(Config{Promotion: policy.Spec{Rule: policy.RuleSelective, K: -1, R: 1}}); err == nil {
		t.Error("invalid promotion accepted")
	}
	// The study pools only zero-awareness items, so a coin rule would run
	// the treatment deterministically.
	_, err := Run(Config{Seed: 1, Items: 50, UsersPerGroup: 5, DurationDays: 2, MeasureLastDays: 1,
		Promotion: policy.Spec{Rule: policy.RuleUniform, K: 1, R: 0.5}})
	if err == nil || !strings.Contains(err.Error(), policy.RuleUniform) {
		t.Errorf("uniform promotion: err = %v, want a refusal naming %q", err, policy.RuleUniform)
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	cfg := Config{Seed: 5, Items: 200, UsersPerGroup: 40, DurationDays: 20, MeasureLastDays: 8, ItemLifetimeDays: 10}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Run(cfg)
	if a.Control.FunnyRatio != b.Control.FunnyRatio ||
		a.Treatment.FunnyRatio != b.Treatment.FunnyRatio {
		t.Fatal("same seed produced different outcomes")
	}
}

func TestVoteAccounting(t *testing.T) {
	res, err := Run(Config{Seed: 1, Items: 300, UsersPerGroup: 60, DurationDays: 25,
		MeasureLastDays: 10, ItemLifetimeDays: 15})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []GroupResult{res.Control, res.Treatment} {
		if g.FunnyVotes > g.TotalVotes {
			t.Fatalf("funny %d > total %d", g.FunnyVotes, g.TotalVotes)
		}
		if g.TotalVotes == 0 {
			t.Fatal("no votes recorded in measurement window")
		}
		if g.VotesOnPromoted+g.VotesOnRanked != g.TotalVotes {
			t.Fatalf("vote source split %d+%d != %d",
				g.VotesOnPromoted, g.VotesOnRanked, g.TotalVotes)
		}
		if math.Abs(g.FunnyRatio-float64(g.FunnyVotes)/float64(g.TotalVotes)) > 1e-12 {
			t.Fatal("ratio inconsistent with counts")
		}
	}
	// Control never promotes.
	if res.Control.VotesOnPromoted != 0 {
		t.Fatalf("control recorded %d promoted votes", res.Control.VotesOnPromoted)
	}
	if res.Treatment.VotesOnPromoted == 0 {
		t.Fatal("treatment recorded no promoted votes")
	}
	if res.Treatment.MeanPoolSize <= 0 {
		t.Fatal("treatment pool never populated")
	}
}

// TestFigure1Improvement is the headline reproduction: rank promotion
// lifts the funny-vote ratio substantially (the paper reports ≈ +60%).
func TestFigure1Improvement(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed study in -short mode")
	}
	var imps []float64
	for seed := uint64(1); seed <= 4; seed++ {
		res, err := Run(Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		imps = append(imps, res.Improvement)
	}
	mean := stats.Summarize(imps).Mean
	if mean < 0.25 {
		t.Fatalf("mean improvement %.1f%%, want the strong positive effect of Figure 1", 100*mean)
	}
	// Sanity on the absolute levels: both ratios in a plausible band.
	res, _ := Run(Config{Seed: 1})
	if res.Control.FunnyRatio < 0.05 || res.Control.FunnyRatio > 0.5 {
		t.Errorf("control ratio %v outside plausible band", res.Control.FunnyRatio)
	}
	if res.Treatment.FunnyRatio <= res.Control.FunnyRatio {
		t.Errorf("treatment %v not above control %v",
			res.Treatment.FunnyRatio, res.Control.FunnyRatio)
	}
}

// TestRankBiasPowerLaw reproduces Appendix A.2: visits per rank follow a
// power law with exponent near −3/2.
func TestRankBiasPowerLaw(t *testing.T) {
	res, err := Run(Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]GroupResult{"control": res.Control, "treatment": res.Treatment} {
		exp, r2, err := g.RankBiasExponent()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if exp > -1.1 || exp < -1.9 {
			t.Errorf("%s: rank-bias exponent %.2f, want near −1.5", name, exp)
		}
		if r2 < 0.9 {
			t.Errorf("%s: power-law fit R² = %.3f", name, r2)
		}
	}
}

func TestRankBiasExponentNeedsData(t *testing.T) {
	g := GroupResult{VisitsByRank: make([]int, 100)}
	if _, _, err := g.RankBiasExponent(); err == nil {
		t.Fatal("empty visit histogram accepted")
	}
}

func TestSamplePageDepth(t *testing.T) {
	rng := randutil.New(7)
	const trials = 200000
	counts := map[int]int{}
	for i := 0; i < trials; i++ {
		d := samplePageDepth(rng, 10)
		if d < 1 || d > 10 {
			t.Fatalf("depth %d outside [1, 10]", d)
		}
		counts[d]++
	}
	// P(D >= p) = p^{-1.5}: check a few tail points.
	tail := func(p int) float64 {
		total := 0
		for d, c := range counts {
			if d >= p {
				total += c
			}
		}
		return float64(total) / trials
	}
	for _, p := range []int{2, 3, 5} {
		want := math.Pow(float64(p), -1.5)
		if got := tail(p); math.Abs(got-want) > 0.01 {
			t.Errorf("P(D >= %d) = %v, want %v", p, got, want)
		}
	}
	if tail(1) != 1 {
		t.Error("P(D >= 1) != 1")
	}
}

func TestContentRotationResetsState(t *testing.T) {
	// With a 5-day lifetime and a 20-day study, every item rotates at
	// least twice; votes must not survive rotation (no item can
	// accumulate more votes than users).
	res, err := Run(Config{Seed: 11, Items: 100, UsersPerGroup: 30, DurationDays: 20,
		MeasureLastDays: 5, ItemLifetimeDays: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Control.TotalVotes == 0 || res.Treatment.TotalVotes == 0 {
		t.Fatal("rotation starved the study of votes")
	}
}

func TestCustomFunniness(t *testing.T) {
	// A point distribution makes every vote funny with probability q:
	// the ratio must be statistically near q in both groups.
	res, err := Run(Config{Seed: 13, Items: 200, UsersPerGroup: 50, DurationDays: 20,
		MeasureLastDays: 10, ItemLifetimeDays: 10,
		Funniness: quality.Point{Q: 0.3}})
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]GroupResult{"control": res.Control, "treatment": res.Treatment} {
		if math.Abs(g.FunnyRatio-0.3) > 0.05 {
			t.Errorf("%s: ratio %v, want ~0.3 under constant funniness", name, g.FunnyRatio)
		}
	}
	// With identical qualities everywhere, promotion cannot help:
	// improvement should be near zero.
	if math.Abs(res.Improvement) > 0.25 {
		t.Errorf("improvement %v under constant quality, want ~0", res.Improvement)
	}
}

func BenchmarkLiveStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Run(Config{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

package policy

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/randutil"
	"repro/internal/stats"
)

func seq(lo, n int) Slice {
	s := make(Slice, n)
	for i := range s {
		s[i] = lo + i
	}
	return s
}

func TestRuleString(t *testing.T) {
	if (Spec{Rule: RuleNone}).String() != "none" ||
		(Spec{Rule: RuleUniform, K: 1, R: 0.5}).String() != "uniform(k=1,r=0.5)" ||
		(Spec{Rule: RuleSelective, K: 2, R: 0.1}).String() != "selective(k=2,r=0.1)" {
		t.Fatal("rule names wrong")
	}
	if (Spec{Rule: "rule(99)"}).String() == "" {
		t.Fatal("unknown rule should still render")
	}
}

func TestPolicyValidate(t *testing.T) {
	good := []Spec{
		{Rule: RuleNone, K: 1},
		{Rule: RuleNone}, // the deterministic rule never reads k
		{Rule: RuleSelective, K: 1, R: 0.1},
		{Rule: RuleSelective, K: 2, R: 1},
		{Rule: RuleUniform, K: 21, R: 0.5},
		Recommended(),
		RecommendedSafe(),
	}
	for _, p := range good {
		if err := p.Validate(); err != nil {
			t.Errorf("%v rejected: %v", p, err)
		}
	}
	bad := []Spec{
		{Rule: "rule(9)", K: 1, R: 0.1},
		{Rule: RuleSelective, K: 0, R: 0.1},
		{Rule: RuleSelective, K: -1, R: 0.1},
		{Rule: RuleSelective, K: 1, R: -0.1},
		{Rule: RuleSelective, K: 1, R: 1.5},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("invalid policy %+v accepted", p)
		}
	}
}

func TestRecommendedMatchesPaper(t *testing.T) {
	p := Recommended()
	if p.Rule != RuleSelective || p.K != 1 || p.R != 0.1 {
		t.Fatalf("Recommended() = %+v", p)
	}
	ps := RecommendedSafe()
	if ps.Rule != RuleSelective || ps.K != 2 || ps.R != 0.1 {
		t.Fatalf("RecommendedSafe() = %+v", ps)
	}
}

func TestMergeIsPermutation(t *testing.T) {
	f := func(seed uint64, ndRaw, npRaw uint8, kRaw uint8, rRaw uint8) bool {
		nd, np := int(ndRaw)%40, int(npRaw)%40
		k := int(kRaw)%20 + 1
		r := float64(rRaw) / 255
		rng := randutil.New(seed)
		det := seq(0, nd)
		pool := seq(1000, np)
		out := Merge(det, pool, k, r, rng, nil)
		if len(out) != nd+np {
			return false
		}
		seen := map[int]bool{}
		for _, id := range out {
			if seen[id] {
				return false
			}
			seen[id] = true
		}
		for _, id := range det {
			if !seen[id] {
				return false
			}
		}
		for _, id := range pool {
			if !seen[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMergePreservesDetOrder(t *testing.T) {
	f := func(seed uint64, kRaw, rRaw uint8) bool {
		rng := randutil.New(seed)
		det := seq(0, 30)
		pool := seq(1000, 10)
		out := Merge(det, pool, int(kRaw)%10+1, float64(rRaw)/255, rng, nil)
		// Det pages (< 1000) must appear in increasing order.
		last := -1
		for _, id := range out {
			if id < 1000 {
				if id < last {
					return false
				}
				last = id
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMergeProtectsTopKMinusOne(t *testing.T) {
	rng := randutil.New(5)
	det := seq(0, 20)
	pool := seq(1000, 10)
	for _, k := range []int{1, 2, 5, 20} {
		for trial := 0; trial < 50; trial++ {
			out := Merge(det, pool, k, 0.9, rng, nil)
			for i := 0; i < k-1 && i < len(det); i++ {
				if out[i] != det[i] {
					t.Fatalf("k=%d: position %d = %d, want protected %d", k, i+1, out[i], det[i])
				}
			}
		}
	}
}

func TestMergeRZeroKeepsPoolAtBottom(t *testing.T) {
	rng := randutil.New(6)
	det := seq(0, 10)
	pool := seq(1000, 5)
	out := Merge(det, pool, 1, 0, rng, nil)
	for i := 0; i < 10; i++ {
		if out[i] != i {
			t.Fatalf("r=0: det order broken at %d: %v", i, out)
		}
	}
	for i := 10; i < 15; i++ {
		if out[i] < 1000 {
			t.Fatalf("r=0: pool page not at bottom: %v", out)
		}
	}
}

func TestMergeROneLiveStudyVariant(t *testing.T) {
	// Appendix A: new items inserted in random order starting at rank 21
	// (selective with k=21, r=1).
	rng := randutil.New(7)
	det := seq(0, 50)
	pool := seq(1000, 5)
	out := Merge(det, pool, 21, 1, rng, nil)
	for i := 0; i < 20; i++ {
		if out[i] != i {
			t.Fatalf("positions 1..20 not deterministic: %v", out[:21])
		}
	}
	for i := 20; i < 25; i++ {
		if out[i] < 1000 {
			t.Fatalf("positions 21..25 should be the pool: %v", out[18:27])
		}
	}
	for i := 25; i < 50; i++ {
		if out[i] != i-5 {
			t.Fatalf("remaining det pages wrong at %d: %v", i, out[i])
		}
	}
}

func TestMergeEmptyInputs(t *testing.T) {
	rng := randutil.New(8)
	if got := Merge(Slice{}, Slice{}, 1, 0.5, rng, nil); len(got) != 0 {
		t.Fatalf("empty merge = %v", got)
	}
	out := Merge(Slice{}, seq(0, 5), 3, 0.5, rng, nil)
	if len(out) != 5 {
		t.Fatalf("pool-only merge = %v", out)
	}
	out = Merge(seq(0, 5), Slice{}, 3, 0.5, rng, nil)
	for i, id := range out {
		if id != i {
			t.Fatalf("det-only merge reordered: %v", out)
		}
	}
}

func TestMergeKBeyondDetLength(t *testing.T) {
	rng := randutil.New(9)
	det := seq(0, 3)
	pool := seq(1000, 4)
	out := Merge(det, pool, 10, 0.5, rng, nil)
	// All det first (prefix covers whole det list), then pool.
	for i := 0; i < 3; i++ {
		if out[i] != i {
			t.Fatalf("prefix broken: %v", out)
		}
	}
	for i := 3; i < 7; i++ {
		if out[i] < 1000 {
			t.Fatalf("pool not at tail: %v", out)
		}
	}
}

func TestMergeAppendsToDst(t *testing.T) {
	rng := randutil.New(10)
	dst := []int{-7}
	out := Merge(seq(0, 3), seq(100, 2), 1, 0.5, rng, dst)
	if len(out) != 6 || out[0] != -7 {
		t.Fatalf("dst prefix lost: %v", out)
	}
}

func TestNewResolverValidation(t *testing.T) {
	if _, err := NewResolver(seq(0, 3), seq(10, 2), 0, 0.5); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewResolver(seq(0, 3), seq(10, 2), 1, -0.1); err == nil {
		t.Error("r<0 accepted")
	}
	if _, err := NewResolver(seq(0, 3), seq(10, 2), 1, 1.1); err == nil {
		t.Error("r>1 accepted")
	}
	res, err := NewResolver(nil, nil, 1, 0.5)
	if err != nil {
		t.Fatalf("nil sources rejected: %v", err)
	}
	if res.Total() != 0 {
		t.Error("nil sources not treated as empty")
	}
}

func TestResolverPanicsOutOfRange(t *testing.T) {
	res, _ := NewResolver(seq(0, 3), seq(10, 2), 1, 0.5)
	rng := randutil.New(1)
	for _, pos := range []int{0, -1, 6, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PageAt(%d) did not panic", pos)
				}
			}()
			res.PageAt(pos, rng)
		}()
	}
}

// positionDistribution estimates P(page | position) over many trials.
func positionDistribution(t *testing.T, sample func(rng *randutil.RNG) int, trials int, seed uint64) map[int]int {
	t.Helper()
	rng := randutil.New(seed)
	counts := map[int]int{}
	for i := 0; i < trials; i++ {
		counts[sample(rng)]++
	}
	return counts
}

// TestResolverMatchesMergeDistribution is the central equivalence test:
// for every position, the lazy resolver's page distribution must match the
// materializing Merge within chi-square tolerance.
func TestResolverMatchesMergeDistribution(t *testing.T) {
	configs := []struct {
		nd, np, k int
		r         float64
	}{
		{8, 4, 1, 0.3},
		{8, 4, 3, 0.3},
		{5, 5, 2, 0.7},
		{6, 2, 1, 0.1},
		{3, 6, 2, 0.5},
		{4, 3, 10, 0.6}, // k beyond det length
		{5, 3, 1, 1.0},  // always promote
		{5, 3, 1, 0.0},  // never promote
	}
	const trials = 40000
	for _, cfg := range configs {
		det := seq(0, cfg.nd)
		pool := seq(100, cfg.np)
		res, err := NewResolver(det, pool, cfg.k, cfg.r)
		if err != nil {
			t.Fatal(err)
		}
		total := cfg.nd + cfg.np
		for pos := 1; pos <= total; pos++ {
			pos := pos
			mergeCounts := positionDistribution(t, func(rng *randutil.RNG) int {
				out := Merge(det, pool, cfg.k, cfg.r, rng, nil)
				return out[pos-1]
			}, trials, uint64(pos*1000+cfg.nd))
			lazyCounts := positionDistribution(t, func(rng *randutil.RNG) int {
				return res.PageAt(pos, rng)
			}, trials, uint64(pos*7777+cfg.np))
			// Chi-square of lazy counts against merge-estimated expected.
			ids := map[int]bool{}
			for id := range mergeCounts {
				ids[id] = true
			}
			for id := range lazyCounts {
				ids[id] = true
			}
			var observed []int
			var expected []float64
			for id := range ids {
				observed = append(observed, lazyCounts[id])
				expected = append(expected, float64(mergeCounts[id]))
			}
			stat, df, err := stats.ChiSquare(observed, expected, 5)
			if err != nil {
				// Degenerate position (single possible page): require
				// identical supports instead.
				for id := range ids {
					if (mergeCounts[id] == 0) != (lazyCounts[id] == 0) {
						t.Errorf("cfg %+v pos %d: support mismatch for page %d", cfg, pos, id)
					}
				}
				continue
			}
			// Both sides are sampled, so the statistic is roughly doubled;
			// use a generous gate to keep the test robust yet meaningful.
			if crit := 2.5 * stats.ChiSquareCritical999(df); stat > crit {
				t.Errorf("cfg %+v pos %d: lazy vs merge chi2 = %.1f (df=%d, crit=%.1f)",
					cfg, pos, stat, df, crit)
			}
		}
	}
}

func TestPromotedProbabilityMatchesEmpirical(t *testing.T) {
	det := seq(0, 10)
	pool := seq(100, 4)
	res, err := NewResolver(det, pool, 2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	rng := randutil.New(42)
	const trials = 60000
	for pos := 1; pos <= 14; pos++ {
		want := res.PromotedProbability(pos)
		hits := 0
		for i := 0; i < trials; i++ {
			if res.PageAt(pos, rng) >= 100 {
				hits++
			}
		}
		got := float64(hits) / trials
		if math.Abs(got-want) > 0.012 {
			t.Errorf("pos %d: empirical promoted prob %v, formula %v", pos, got, want)
		}
	}
}

func TestPromotedProbabilityEdges(t *testing.T) {
	det := seq(0, 10)
	pool := seq(100, 4)
	res, _ := NewResolver(det, pool, 3, 0.3)
	if got := res.PromotedProbability(1); got != 0 {
		t.Errorf("protected position prob = %v", got)
	}
	if got := res.PromotedProbability(2); got != 0 {
		t.Errorf("protected position prob = %v", got)
	}
	if got := res.PromotedProbability(0); got != 0 {
		t.Errorf("out of range prob = %v", got)
	}
	if got := res.PromotedProbability(15); got != 0 {
		t.Errorf("out of range prob = %v", got)
	}
	// Sum over positions of promoted probability = pool size.
	sum := 0.0
	for pos := 1; pos <= 14; pos++ {
		sum += res.PromotedProbability(pos)
	}
	if math.Abs(sum-4) > 1e-9 {
		t.Errorf("promoted probabilities sum to %v, want 4", sum)
	}
	// Empty det: every non-protected position is promoted.
	res2, _ := NewResolver(Slice{}, pool, 1, 0.5)
	if got := res2.PromotedProbability(1); got != 1 {
		t.Errorf("pool-only prob = %v", got)
	}
	// Empty pool: nothing promoted.
	res3, _ := NewResolver(det, Slice{}, 1, 0.5)
	if got := res3.PromotedProbability(3); got != 0 {
		t.Errorf("empty-pool prob = %v", got)
	}
}

func TestResolverMaterializeEquivalentToMerge(t *testing.T) {
	det := seq(0, 12)
	pool := seq(100, 5)
	res, _ := NewResolver(det, pool, 2, 0.4)
	rngA := randutil.New(77)
	rngB := randutil.New(77)
	a := res.Materialize(rngA, nil)
	b := Merge(det, pool, 2, 0.4, rngB, nil)
	if len(a) != len(b) {
		t.Fatalf("length mismatch %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed materialization differs at %d", i)
		}
	}
}

func TestResolverUniformOverPool(t *testing.T) {
	// Positions in the random zone should pick each pool page equally often.
	det := seq(0, 6)
	pool := seq(100, 5)
	res, _ := NewResolver(det, pool, 1, 0.5)
	rng := randutil.New(11)
	counts := map[int]int{}
	const trials = 100000
	promoted := 0
	for i := 0; i < trials; i++ {
		id := res.PageAt(4, rng)
		if id >= 100 {
			counts[id]++
			promoted++
		}
	}
	want := float64(promoted) / 5
	for id := 100; id < 105; id++ {
		if math.Abs(float64(counts[id])-want) > 5*math.Sqrt(want) {
			t.Errorf("pool page %d picked %d times, want ~%.0f", id, counts[id], want)
		}
	}
}

func BenchmarkMerge10k(b *testing.B) {
	det := seq(0, 10000)
	pool := seq(100000, 500)
	rng := randutil.New(1)
	var dst []int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = Merge(det, pool, 1, 0.1, rng, dst[:0])
	}
}

func BenchmarkResolverPageAt(b *testing.B) {
	det := seq(0, 10000)
	pool := seq(100000, 500)
	res, err := NewResolver(det, pool, 1, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	rng := randutil.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res.PageAt(i%10500+1, rng)
	}
}

// TestPromotedMassConservedQuick verifies, across random configurations,
// that the per-position promoted probabilities sum to exactly the pool
// size — every pool page occupies exactly one slot in any merge.
func TestPromotedMassConservedQuick(t *testing.T) {
	f := func(ndRaw, npRaw, kRaw uint8, rRaw uint8) bool {
		nd := int(ndRaw) % 30
		np := int(npRaw) % 20
		k := int(kRaw)%15 + 1
		r := float64(rRaw) / 255
		res, err := NewResolver(seq(0, nd), seq(100, np), k, r)
		if err != nil {
			return false
		}
		sum := 0.0
		for pos := 1; pos <= nd+np; pos++ {
			p := res.PromotedProbability(pos)
			if p < -1e-12 || p > 1+1e-12 {
				return false
			}
			sum += p
		}
		return math.Abs(sum-float64(np)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestMergeDeterministicWhenPoolEmpty: with an empty pool every policy
// reduces to the deterministic ranking regardless of k and r.
func TestMergeDeterministicWhenPoolEmpty(t *testing.T) {
	f := func(seed uint64, kRaw, rRaw uint8) bool {
		rng := randutil.New(seed)
		det := seq(0, 25)
		out := Merge(det, Slice{}, int(kRaw)%30+1, float64(rRaw)/255, rng, nil)
		for i, id := range out {
			if id != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

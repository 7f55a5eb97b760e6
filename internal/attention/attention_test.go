package attention

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/randutil"
)

func mustModel(t *testing.T, n int, visits, exp float64) *Model {
	t.Helper()
	m, err := NewModel(n, visits, exp)
	if err != nil {
		t.Fatalf("NewModel(%d, %v, %v): %v", n, visits, exp, err)
	}
	return m
}

func TestNewModelValidation(t *testing.T) {
	cases := []struct {
		n      int
		visits float64
		exp    float64
	}{
		{0, 100, 1.5},
		{-5, 100, 1.5},
		{10, -1, 1.5},
		{10, 100, 0},
		{10, 100, -2},
	}
	for _, c := range cases {
		if _, err := NewModel(c.n, c.visits, c.exp); err == nil {
			t.Errorf("NewModel(%d, %v, %v) accepted invalid config", c.n, c.visits, c.exp)
		}
	}
}

func TestVisitRatesSumToVisitBudget(t *testing.T) {
	m := mustModel(t, 1000, 100, 1.5)
	sum := 0.0
	for i := 1; i <= 1000; i++ {
		sum += m.VisitRate(i)
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Fatalf("sum of visit rates = %v, want 100", sum)
	}
}

func TestVisitRateMonotoneDecreasing(t *testing.T) {
	m := mustModel(t, 500, 100, 1.5)
	prev := math.Inf(1)
	for i := 1; i <= 500; i++ {
		v := m.VisitRate(i)
		if v <= 0 {
			t.Fatalf("rank %d has non-positive rate %v", i, v)
		}
		if v >= prev {
			t.Fatalf("rate not strictly decreasing at rank %d: %v >= %v", i, v, prev)
		}
		prev = v
	}
}

func TestVisitRatePowerLawRatio(t *testing.T) {
	m := mustModel(t, 10000, 1, 1.5)
	// F2(1)/F2(4) should be 4^1.5 = 8 exactly.
	ratio := m.VisitRate(1) / m.VisitRate(4)
	if math.Abs(ratio-8) > 1e-9 {
		t.Fatalf("F2(1)/F2(4) = %v, want 8", ratio)
	}
}

func TestVisitRateOutOfRange(t *testing.T) {
	m := mustModel(t, 10, 100, 1.5)
	for _, r := range []int{0, -1, 11, 1000} {
		if got := m.VisitRate(r); got != 0 {
			t.Errorf("VisitRate(%d) = %v, want 0", r, got)
		}
	}
}

func TestVisitRateAtClamps(t *testing.T) {
	m := mustModel(t, 10, 100, 1.5)
	if got, want := m.VisitRateAt(0.3), m.VisitRate(1); math.Abs(got-want) > 1e-12 {
		t.Errorf("VisitRateAt(0.3) = %v, want clamp to rank 1 = %v", got, want)
	}
	if got, want := m.VisitRateAt(99), m.VisitRate(10); math.Abs(got-want) > 1e-12 {
		t.Errorf("VisitRateAt(99) = %v, want clamp to rank 10 = %v", got, want)
	}
	// Interior fractional rank lies between its integer neighbors.
	v := m.VisitRateAt(2.5)
	if v >= m.VisitRate(2) || v <= m.VisitRate(3) {
		t.Errorf("VisitRateAt(2.5) = %v not between F2(3)=%v and F2(2)=%v",
			v, m.VisitRate(3), m.VisitRate(2))
	}
}

func TestProbabilitiesSumToOne(t *testing.T) {
	m := mustModel(t, 200, 50, 1.5)
	sum := 0.0
	for i := 1; i <= 200; i++ {
		sum += m.Probability(i)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("probabilities sum to %v", sum)
	}
}

func TestCumulativeAndTailMass(t *testing.T) {
	m := mustModel(t, 100, 10, 1.5)
	for _, r := range []int{1, 5, 50, 100} {
		cum := m.CumulativeMass(r)
		tail := m.TailMass(r + 1)
		if math.Abs(cum+tail-10) > 1e-9 {
			t.Errorf("rank %d: cumulative %v + tail %v != 10", r, cum, tail)
		}
	}
	if m.CumulativeMass(0) != 0 {
		t.Error("CumulativeMass(0) != 0")
	}
	if m.TailMass(101) != 0 {
		t.Error("TailMass beyond n != 0")
	}
	if math.Abs(m.CumulativeMass(200)-10) > 1e-9 {
		t.Error("CumulativeMass clamps above n")
	}
}

func TestThetaMatchesDefinition(t *testing.T) {
	m := mustModel(t, 50, 100, 1.5)
	sum := 0.0
	for i := 1; i <= 50; i++ {
		sum += math.Pow(float64(i), -1.5)
	}
	if math.Abs(m.Theta()-100/sum) > 1e-12 {
		t.Fatalf("Theta = %v, want %v", m.Theta(), 100/sum)
	}
}

func TestSampleRankDistribution(t *testing.T) {
	m := mustModel(t, 20, 1, 1.5)
	rng := randutil.New(123)
	const trials = 200000
	counts := make([]int, 21)
	for i := 0; i < trials; i++ {
		r := m.SampleRank(rng)
		if r < 1 || r > 20 {
			t.Fatalf("sampled rank %d out of range", r)
		}
		counts[r]++
	}
	for i := 1; i <= 20; i++ {
		want := m.Probability(i) * trials
		sd := math.Sqrt(want)
		if math.Abs(float64(counts[i])-want) > 6*sd+1 {
			t.Errorf("rank %d sampled %d times, want ~%.0f", i, counts[i], want)
		}
	}
}

func TestSampleRankTopHeavy(t *testing.T) {
	m := mustModel(t, 10000, 1, 1.5)
	rng := randutil.New(7)
	top10 := 0
	const trials = 50000
	for i := 0; i < trials; i++ {
		if m.SampleRank(rng) <= 10 {
			top10++
		}
	}
	// With γ=1.5 and n=10^4, the top 10 positions hold ~72% of attention.
	frac := float64(top10) / trials
	if frac < 0.65 || frac > 0.80 {
		t.Fatalf("top-10 attention share = %v, want ~0.72", frac)
	}
}

func TestSampleRanksReuse(t *testing.T) {
	m := mustModel(t, 10, 1, 1.5)
	rng := randutil.New(1)
	buf := make([]int, 0, 64)
	out := m.SampleRanks(rng, 32, buf)
	if len(out) != 32 {
		t.Fatalf("len = %d", len(out))
	}
	if &out[0] != &buf[:1][0] {
		t.Error("SampleRanks did not reuse provided buffer")
	}
	out2 := m.SampleRanks(rng, 128, buf)
	if len(out2) != 128 {
		t.Fatalf("len = %d after growth", len(out2))
	}
}

func TestSinglePositionModel(t *testing.T) {
	m := mustModel(t, 1, 42, 1.5)
	if got := m.VisitRate(1); math.Abs(got-42) > 1e-12 {
		t.Fatalf("single-slot model rate = %v, want 42", got)
	}
	rng := randutil.New(2)
	for i := 0; i < 100; i++ {
		if m.SampleRank(rng) != 1 {
			t.Fatal("single-slot model sampled rank != 1")
		}
	}
}

// TestAliasTableMatchesExactProbabilities verifies the alias-table
// acceptance masses reproduce the exact F2 law: summing each slot's own
// retained mass plus the mass redirected to it must recover Probability(i).
func TestAliasTableMatchesExactProbabilities(t *testing.T) {
	for _, n := range []int{1, 2, 7, 100, 4096} {
		m := mustModel(t, n, 1, 1.5)
		mass := make([]float64, n)
		for i := 0; i < n; i++ {
			mass[i] += m.table[i].prob / float64(n)
			mass[int(m.table[i].alias)] += (1 - m.table[i].prob) / float64(n)
		}
		for i := 0; i < n; i++ {
			want := m.Probability(i + 1)
			if math.Abs(mass[i]-want) > 1e-12 {
				t.Fatalf("n=%d rank %d: alias mass %v, exact %v", n, i+1, mass[i], want)
			}
		}
	}
}

// TestSampleRankChiSquare is a chi-square goodness-of-fit test of the
// alias sampler against the exact F2 probabilities.
func TestSampleRankChiSquare(t *testing.T) {
	const (
		n      = 50
		trials = 500000
	)
	m := mustModel(t, n, 1, 1.5)
	rng := randutil.New(20260728)
	counts := make([]int, n+1)
	for i := 0; i < trials; i++ {
		r := m.SampleRank(rng)
		if r < 1 || r > n {
			t.Fatalf("sampled rank %d out of range", r)
		}
		counts[r]++
	}
	chi2 := 0.0
	for i := 1; i <= n; i++ {
		exp := m.Probability(i) * trials
		if exp < 5 {
			t.Fatalf("rank %d expected count %v too small for chi-square", i, exp)
		}
		d := float64(counts[i]) - exp
		chi2 += d * d / exp
	}
	// 49 degrees of freedom: the 99.9% quantile is 85.35. A correct
	// sampler fails this for one seed in a thousand; a broken one blows
	// far past it.
	if chi2 > 85.35 {
		t.Fatalf("chi-square = %v over %d df, exceeds 99.9%% quantile 85.35", chi2, n-1)
	}
}

// BenchmarkSampleRank sweeps the model size to demonstrate O(1) sampling:
// per-draw cost must not grow from n=10^4 to n=10^6.
func BenchmarkSampleRank(b *testing.B) {
	for _, n := range []int{10000, 100000, 1000000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			m, err := Default(n, 1000)
			if err != nil {
				b.Fatal(err)
			}
			rng := randutil.New(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = m.SampleRank(rng)
			}
		})
	}
}

// Probability returns the probability that a single visit lands on the
// given 1-based rank.
func (m *Model) Probability(rank int) float64 {
	if rank < 1 || rank > m.n {
		return 0
	}
	return (m.prefix[rank] - m.prefix[rank-1]) / m.prefix[m.n]
}

// SampleRanks draws count independent rank positions into dst (reusing its
// backing array when possible) and returns the slice.
func (m *Model) SampleRanks(rng *randutil.RNG, count int, dst []int) []int {
	if cap(dst) < count {
		dst = make([]int, count)
	}
	dst = dst[:count]
	for i := range dst {
		dst[i] = m.SampleRank(rng)
	}
	return dst
}

package randutil

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical outputs out of 100", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	saw := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		saw[r.Uint64()] = true
	}
	if len(saw) < 100 {
		t.Fatalf("seed 0 produced repeated outputs: %d distinct of 100", len(saw))
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 10, 1000} {
		for i := 0; i < 2000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(5)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d, want ~%v", i, c, want)
		}
	}
}

// TestGeometricLaw checks P(Geometric(p) = k) = (1−p)^k·p cell by cell
// (with a tail cell) and the no-draw edges p = 0 and p = 1.
func TestGeometricLaw(t *testing.T) {
	r := New(11)
	for _, p := range []float64{0.05, 0.3, 0.9} {
		const cells, trials = 12, 200000
		counts := make([]int, cells+1)
		for i := 0; i < trials; i++ {
			counts[min(r.Geometric(p), cells)]++
		}
		for k, c := range counts {
			prob := math.Pow(1-p, float64(k)) // the tail cell: P(>= cells)
			if k < cells {
				prob *= p
			}
			want := prob * trials
			if math.Abs(float64(c)-want) > 5*math.Sqrt(want)+1 {
				t.Errorf("p=%v cell %d: count %d, want ~%.0f", p, k, c, want)
			}
		}
	}
	before := *r
	if g := r.Geometric(1); g != 0 {
		t.Fatalf("Geometric(1) = %d, want 0", g)
	}
	if g := r.Geometric(0); g != math.MaxInt {
		t.Fatalf("Geometric(0) = %d, want MaxInt", g)
	}
	if *r != before {
		t.Fatal("Geometric(0) or Geometric(1) consumed a draw")
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestMul64(t *testing.T) {
	cases := []struct {
		a, b, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
		{1 << 32, 1 << 32, 1, 0},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func TestMul64Quick(t *testing.T) {
	// Against the 32-bit decomposition identity: verify hi:lo matches
	// big-integer style accumulation done a different way.
	f := func(a, b uint64) bool {
		hi, lo := mul64(a, b)
		// Recompute with four 32x32 products summed column-wise.
		const m = 1<<32 - 1
		a0, a1 := a&m, a>>32
		b0, b1 := b&m, b>>32
		p00 := a0 * b0
		p01 := a0 * b1
		p10 := a1 * b0
		p11 := a1 * b1
		carry := (p00>>32 + p01&m + p10&m) >> 32
		wantLo := a * b
		wantHi := p11 + p01>>32 + p10>>32 + carry
		return hi == wantHi && lo == wantLo
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBernoulliExtremes(t *testing.T) {
	r := New(9)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if r.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !r.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(13)
	const trials = 100000
	for _, p := range []float64{0.1, 0.5, 0.9} {
		hits := 0
		for i := 0; i < trials; i++ {
			if r.Bernoulli(p) {
				hits++
			}
		}
		got := float64(hits) / trials
		if math.Abs(got-p) > 0.01 {
			t.Errorf("Bernoulli(%v) rate = %v", p, got)
		}
	}
}

func TestExpMean(t *testing.T) {
	r := New(17)
	const trials = 200000
	for _, rate := range []float64{0.5, 1, 4} {
		sum := 0.0
		for i := 0; i < trials; i++ {
			v := r.Exp(rate)
			if v < 0 {
				t.Fatalf("Exp(%v) negative: %v", rate, v)
			}
			sum += v
		}
		mean := sum / trials
		want := 1 / rate
		if math.Abs(mean-want)/want > 0.02 {
			t.Errorf("Exp(%v) mean = %v, want ~%v", rate, mean, want)
		}
	}
}

func TestExpPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	New(1).Exp(0)
}

func TestNormMoments(t *testing.T) {
	r := New(19)
	const trials = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < trials; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / trials
	variance := sumSq/trials - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestShufflePermutes(t *testing.T) {
	r := New(23)
	const n = 50
	a := make([]int, n)
	for i := range a {
		a[i] = i
	}
	r.Shuffle(n, func(i, j int) { a[i], a[j] = a[j], a[i] })
	seen := make([]bool, n)
	moved := 0
	for i, v := range a {
		if v < 0 || v >= n || seen[v] {
			t.Fatalf("not a permutation at %d: %v", i, a)
		}
		seen[v] = true
		if v != i {
			moved++
		}
	}
	if moved == 0 {
		t.Error("shuffle left array fully sorted (astronomically unlikely)")
	}
}

func TestShuffleUniformFirstElement(t *testing.T) {
	r := New(29)
	const n, trials = 5, 50000
	counts := make([]int, n)
	for trial := 0; trial < trials; trial++ {
		a := []int{0, 1, 2, 3, 4}
		r.Shuffle(n, func(i, j int) { a[i], a[j] = a[j], a[i] })
		counts[a[0]]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("value %d first %d times, want ~%v", i, c, want)
		}
	}
}

func TestPerm(t *testing.T) {
	r := New(31)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if seen[v] {
			t.Fatal("Perm repeated a value")
		}
		seen[v] = true
	}
	if len(r.Perm(0)) != 0 {
		t.Error("Perm(0) not empty")
	}
}

func TestBinomialEdges(t *testing.T) {
	r := New(37)
	if got := r.Binomial(0, 0.5); got != 0 {
		t.Errorf("Binomial(0, .5) = %d", got)
	}
	if got := r.Binomial(10, 0); got != 0 {
		t.Errorf("Binomial(10, 0) = %d", got)
	}
	if got := r.Binomial(10, 1); got != 10 {
		t.Errorf("Binomial(10, 1) = %d", got)
	}
	if got := r.Binomial(-3, 0.5); got != 0 {
		t.Errorf("Binomial(-3, .5) = %d", got)
	}
}

func TestBinomialMoments(t *testing.T) {
	r := New(41)
	cases := []struct {
		n int
		p float64
	}{
		{10, 0.3},   // inversion path
		{50, 0.9},   // symmetry path
		{500, 0.2},  // normal approximation path
		{2000, 0.5}, // normal approximation path
	}
	const trials = 30000
	for _, c := range cases {
		sum, sumSq := 0.0, 0.0
		for i := 0; i < trials; i++ {
			v := r.Binomial(c.n, c.p)
			if v < 0 || v > c.n {
				t.Fatalf("Binomial(%d,%v) = %d out of range", c.n, c.p, v)
			}
			f := float64(v)
			sum += f
			sumSq += f * f
		}
		mean := sum / trials
		variance := sumSq/trials - mean*mean
		wantMean := float64(c.n) * c.p
		wantVar := wantMean * (1 - c.p)
		if math.Abs(mean-wantMean) > 4*math.Sqrt(wantVar/trials)+0.05 {
			t.Errorf("Binomial(%d,%v) mean = %v, want ~%v", c.n, c.p, mean, wantMean)
		}
		if math.Abs(variance-wantVar)/wantVar > 0.1 {
			t.Errorf("Binomial(%d,%v) variance = %v, want ~%v", c.n, c.p, variance, wantVar)
		}
	}
}

func TestPoissonEdges(t *testing.T) {
	r := New(43)
	if got := r.Poisson(0); got != 0 {
		t.Errorf("Poisson(0) = %d", got)
	}
	if got := r.Poisson(-1); got != 0 {
		t.Errorf("Poisson(-1) = %d", got)
	}
}

func TestPoissonMoments(t *testing.T) {
	r := New(47)
	const trials = 30000
	for _, mean := range []float64{0.5, 3, 25, 100} {
		sum, sumSq := 0.0, 0.0
		for i := 0; i < trials; i++ {
			v := float64(r.Poisson(mean))
			sum += v
			sumSq += v * v
		}
		m := sum / trials
		variance := sumSq/trials - m*m
		if math.Abs(m-mean)/mean > 0.05 {
			t.Errorf("Poisson(%v) mean = %v", mean, m)
		}
		if math.Abs(variance-mean)/mean > 0.12 {
			t.Errorf("Poisson(%v) variance = %v", mean, variance)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(53)
	child := parent.Split()
	// Child stream should differ from the parent's continuing stream.
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("parent and child streams matched %d/100 times", same)
	}
}

func TestSplitDeterministic(t *testing.T) {
	a := New(99).Split()
	b := New(99).Split()
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split is not deterministic")
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkBinomialLarge(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Binomial(10000, 0.1)
	}
}

// Poisson samples from a Poisson distribution with the given mean. It uses
// Knuth's product method for small means and a normal approximation for
// large means.
func (r *RNG) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean < 30 {
		l := math.Exp(-mean)
		k := 0
		p := 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	for {
		x := math.Floor(mean + math.Sqrt(mean)*r.NormFloat64() + 0.5)
		if x >= 0 {
			return int(x)
		}
	}
}

package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/randutil"
)

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
	if !math.IsInf(s.CI95(), 1) {
		t.Error("CI95 of empty sample should be +Inf")
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{3})
	if s.N != 1 || s.Mean != 3 || s.Min != 3 || s.Max != 3 || s.Var != 0 {
		t.Fatalf("single summary = %+v", s)
	}
}

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(s.Mean-5) > 1e-12 {
		t.Errorf("mean = %v", s.Mean)
	}
	// Sample variance with n-1: sum of squared deviations = 32, /7.
	if math.Abs(s.Var-32.0/7) > 1e-12 {
		t.Errorf("var = %v", s.Var)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("min/max = %v/%v", s.Min, s.Max)
	}
	if !strings.Contains(s.String(), "n=8") {
		t.Errorf("String() = %q", s.String())
	}
}

func TestFitLineExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 2x + 1
	fit, err := FitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-2) > 1e-12 || math.Abs(fit.Intercept-1) > 1e-12 {
		t.Fatalf("fit = %+v", fit)
	}
	if math.Abs(fit.R2-1) > 1e-12 {
		t.Fatalf("R2 = %v", fit.R2)
	}
}

func TestFitLineErrors(t *testing.T) {
	if _, err := FitLine([]float64{1}, []float64{1}); err == nil {
		t.Error("single point accepted")
	}
	if _, err := FitLine([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := FitLine([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("vertical line accepted")
	}
}

func TestFitLineNoisy(t *testing.T) {
	rng := randutil.New(4)
	xs := make([]float64, 500)
	ys := make([]float64, 500)
	for i := range xs {
		xs[i] = float64(i) / 50
		ys[i] = -1.5*xs[i] + 4 + 0.01*rng.NormFloat64()
	}
	fit, err := FitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope+1.5) > 0.01 || math.Abs(fit.Intercept-4) > 0.01 {
		t.Fatalf("fit = %+v", fit)
	}
	if fit.R2 < 0.99 {
		t.Fatalf("R2 = %v", fit.R2)
	}
}

func TestFitPowerLawRecoversMinusThreeHalves(t *testing.T) {
	// y = 7 · x^(-1.5) — the paper's rank-bias law.
	xs := make([]float64, 100)
	ys := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
		ys[i] = 7 * math.Pow(xs[i], -1.5)
	}
	exp, c, r2, err := FitPowerLaw(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exp+1.5) > 1e-9 || math.Abs(c-7) > 1e-9 || math.Abs(r2-1) > 1e-9 {
		t.Fatalf("exp=%v c=%v r2=%v", exp, c, r2)
	}
}

func TestFitPowerLawSkipsNonPositive(t *testing.T) {
	xs := []float64{0, -1, 1, 2, 4, 8}
	ys := []float64{5, 5, 1, 2, 4, 8} // y = x over positive points
	exp, _, _, err := FitPowerLaw(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exp-1) > 1e-9 {
		t.Fatalf("exponent = %v, want 1", exp)
	}
	if _, _, _, err := FitPowerLaw([]float64{0, -2}, []float64{1, 1}); err == nil {
		t.Error("all-non-positive input accepted")
	}
}

func TestFitQuadraticExact(t *testing.T) {
	// y = 0.5x² − 2x + 3
	xs := []float64{-2, -1, 0, 1, 2, 3}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 0.5*x*x - 2*x + 3
	}
	q, err := FitQuadratic(xs, ys, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(q.A-0.5) > 1e-9 || math.Abs(q.B+2) > 1e-9 || math.Abs(q.C-3) > 1e-9 {
		t.Fatalf("fit = %+v", q)
	}
	if got := q.Eval(10); math.Abs(got-(50-20+3)) > 1e-9 {
		t.Fatalf("Eval(10) = %v", got)
	}
}

func TestFitQuadraticWeighted(t *testing.T) {
	// Heavy weight on three points that define one parabola; light noise
	// points elsewhere should barely matter.
	xs := []float64{0, 1, 2, 5, 6}
	ys := []float64{1, 2, 5, 100, -100} // first three: y = x² + 1... (0,1),(1,2),(2,5) ✓
	ws := []float64{1e6, 1e6, 1e6, 1, 1}
	q, err := FitQuadratic(xs, ys, ws)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(q.A-1) > 0.01 || math.Abs(q.B) > 0.05 || math.Abs(q.C-1) > 0.05 {
		t.Fatalf("weighted fit = %+v", q)
	}
}

func TestFitQuadraticErrors(t *testing.T) {
	if _, err := FitQuadratic([]float64{1, 2}, []float64{1, 2}, nil); err == nil {
		t.Error("two points accepted")
	}
	if _, err := FitQuadratic([]float64{1, 1, 1}, []float64{1, 2, 3}, nil); err == nil {
		t.Error("degenerate x accepted")
	}
	if _, err := FitQuadratic([]float64{1, 2, 3}, []float64{1, 2}, nil); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := FitQuadratic([]float64{1, 2, 3}, []float64{1, 2, 3}, []float64{1}); err == nil {
		t.Error("mismatched weights accepted")
	}
}

func TestFitQuadraticQuick(t *testing.T) {
	f := func(a8, b8, c8 int8) bool {
		a, b, c := float64(a8)/16, float64(b8)/16, float64(c8)/16
		xs := []float64{-3, -1, 0, 0.5, 2, 4}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = a*x*x + b*x + c
		}
		q, err := FitQuadratic(xs, ys, nil)
		if err != nil {
			return false
		}
		return math.Abs(q.A-a) < 1e-6 && math.Abs(q.B-b) < 1e-6 && math.Abs(q.C-c) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	h, err := NewHistogram(0, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	h.Add(-0.5) // under
	h.Add(0.05) // bin 0
	h.Add(0.95) // bin 9
	h.Add(1.0)  // over (half-open)
	h.Add(2.0)  // over
	if h.N != 5 || h.Under != 1 || h.Over != 2 {
		t.Fatalf("h = %+v", h)
	}
	if h.Counts[0] != 1 || h.Counts[9] != 1 {
		t.Fatalf("counts = %v", h.Counts)
	}
	if got := h.Fraction(0); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("Fraction(0) = %v", got)
	}
	if got := h.BinCenter(0); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("BinCenter(0) = %v", got)
	}
}

func TestHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(0, 1, 0); err == nil {
		t.Error("zero bins accepted")
	}
	if _, err := NewHistogram(1, 0, 5); err == nil {
		t.Error("lo >= hi accepted")
	}
}

func TestChiSquareMatchingDistributions(t *testing.T) {
	rng := randutil.New(8)
	const n = 100000
	expected := make([]float64, 10)
	observed := make([]int, 10)
	for i := range expected {
		expected[i] = float64(n) / 10
	}
	for i := 0; i < n; i++ {
		observed[rng.Intn(10)]++
	}
	stat, df, err := ChiSquare(observed, expected, 5)
	if err != nil {
		t.Fatal(err)
	}
	if df != 9 {
		t.Fatalf("df = %d", df)
	}
	if stat > ChiSquareCritical999(df) {
		t.Fatalf("uniform sample rejected: stat %v > crit %v", stat, ChiSquareCritical999(df))
	}
}

func TestChiSquareDetectsMismatch(t *testing.T) {
	expected := []float64{100, 100, 100, 100}
	observed := []int{200, 50, 50, 100}
	stat, df, err := ChiSquare(observed, expected, 5)
	if err != nil {
		t.Fatal(err)
	}
	if stat <= ChiSquareCritical999(df) {
		t.Fatalf("gross mismatch not detected: stat %v", stat)
	}
}

func TestChiSquarePoolsSmallCells(t *testing.T) {
	expected := []float64{0.5, 0.5, 0.5, 0.5, 98} // tiny cells pool together
	observed := []int{1, 0, 1, 0, 98}
	_, df, err := ChiSquare(observed, expected, 2)
	if err != nil {
		t.Fatal(err)
	}
	if df != 1 {
		t.Fatalf("df = %d after pooling, want 1", df)
	}
}

func TestChiSquareErrors(t *testing.T) {
	if _, _, err := ChiSquare([]int{1}, []float64{1, 2}, 1); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, _, err := ChiSquare([]int{1, 2}, []float64{-1, 2}, 1); err == nil {
		t.Error("negative expected accepted")
	}
	if _, _, err := ChiSquare([]int{5}, []float64{5}, 1); err == nil {
		t.Error("single cell accepted")
	}
}

func TestChiSquareCritical(t *testing.T) {
	// Known reference: χ²(0.999, 10) ≈ 29.59.
	got := ChiSquareCritical999(10)
	if math.Abs(got-29.59) > 0.5 {
		t.Fatalf("critical(10) = %v, want ~29.59", got)
	}
	if ChiSquareCritical999(0) != 0 {
		t.Error("df=0 should give 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if got := Percentile(xs, 0); got != 1 {
		t.Errorf("p0 = %v", got)
	}
	if got := Percentile(xs, 100); got != 5 {
		t.Errorf("p100 = %v", got)
	}
	if got := Percentile(xs, 50); math.Abs(got-3) > 1e-12 {
		t.Errorf("p50 = %v", got)
	}
	if got := Percentile(xs, 25); math.Abs(got-2) > 1e-12 {
		t.Errorf("p25 = %v", got)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("empty percentile should be NaN")
	}
	// Input must not be mutated.
	if xs[0] != 5 {
		t.Error("Percentile mutated its input")
	}
}

// Histogram is a fixed-width histogram over [Lo, Hi).
type Histogram struct {
	Lo, Hi float64
	Counts []int
	N      int // total observations, including out-of-range ones
	Under  int // observations below Lo
	Over   int // observations at or above Hi
}

// NewHistogram creates a histogram with the given number of bins.
func NewHistogram(lo, hi float64, bins int) (*Histogram, error) {
	if bins <= 0 {
		return nil, fmt.Errorf("stats: need positive bin count, got %d", bins)
	}
	if !(lo < hi) {
		return nil, fmt.Errorf("stats: need lo < hi, got [%v, %v)", lo, hi)
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}, nil
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.N++
	switch {
	case x < h.Lo:
		h.Under++
	case x >= h.Hi:
		h.Over++
	default:
		idx := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
		if idx >= len(h.Counts) { // floating-point edge at Hi
			idx = len(h.Counts) - 1
		}
		h.Counts[idx]++
	}
}

// Fraction returns the share of all observations that fell into bin i.
func (h *Histogram) Fraction(i int) float64 {
	if h.N == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(h.N)
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(i)+0.5)*w
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation; it copies and sorts the input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

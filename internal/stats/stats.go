// Package stats provides the small statistics toolkit the experiments use:
// summary statistics with confidence intervals, simple and log-log linear
// regression (for verifying the rank-bias power law of Appendix A.2),
// histograms, and a chi-square goodness-of-fit helper used to validate the
// lazy promotion-merge sampler against the materializing reference.
package stats

import (
	"fmt"
	"math"
)

// Summary holds moments of a sample.
type Summary struct {
	N      int
	Mean   float64
	Var    float64 // unbiased sample variance
	StdDev float64
	Min    float64
	Max    float64
}

// Summarize computes summary statistics. An empty input yields a zero
// Summary with N == 0.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if s.N == 0 {
		return s
	}
	s.Min, s.Max = xs[0], xs[0]
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Var = ss / float64(s.N-1)
		s.StdDev = math.Sqrt(s.Var)
	}
	return s
}

// CI95 returns the half-width of the normal-approximation 95% confidence
// interval of the mean.
func (s Summary) CI95() float64 {
	if s.N < 2 {
		return math.Inf(1)
	}
	return 1.96 * s.StdDev / math.Sqrt(float64(s.N))
}

// String renders "mean ± ci (n=N)".
func (s Summary) String() string {
	return fmt.Sprintf("%.4f ± %.4f (n=%d)", s.Mean, s.CI95(), s.N)
}

// LinearFit is the least-squares line y = Slope·x + Intercept.
type LinearFit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// FitLine fits y = a·x + b by ordinary least squares. It returns an error
// when fewer than two distinct x values are provided.
func FitLine(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) {
		return LinearFit{}, fmt.Errorf("stats: mismatched lengths %d vs %d", len(xs), len(ys))
	}
	n := float64(len(xs))
	if len(xs) < 2 {
		return LinearFit{}, fmt.Errorf("stats: need at least 2 points, got %d", len(xs))
	}
	var sx, sy, sxx, sxy, syy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
		syy += ys[i] * ys[i]
	}
	denom := n*sxx - sx*sx
	if denom == 0 {
		return LinearFit{}, fmt.Errorf("stats: x values are all identical")
	}
	fit := LinearFit{}
	fit.Slope = (n*sxy - sx*sy) / denom
	fit.Intercept = (sy - fit.Slope*sx) / n
	ssTot := syy - sy*sy/n
	if ssTot > 0 {
		ssRes := 0.0
		for i := range xs {
			r := ys[i] - (fit.Slope*xs[i] + fit.Intercept)
			ssRes += r * r
		}
		fit.R2 = 1 - ssRes/ssTot
	} else {
		fit.R2 = 1
	}
	return fit, nil
}

// FitPowerLaw fits y = C·x^Exponent by linear regression in log-log space,
// skipping non-positive points. This is how Appendix A.2 verifies that the
// live-study users followed the −3/2 rank-bias law.
func FitPowerLaw(xs, ys []float64) (exponent, c, r2 float64, err error) {
	if len(xs) != len(ys) {
		return 0, 0, 0, fmt.Errorf("stats: mismatched lengths %d vs %d", len(xs), len(ys))
	}
	var lx, ly []float64
	for i := range xs {
		if xs[i] > 0 && ys[i] > 0 {
			lx = append(lx, math.Log(xs[i]))
			ly = append(ly, math.Log(ys[i]))
		}
	}
	fit, err := FitLine(lx, ly)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("stats: power-law fit: %w", err)
	}
	return fit.Slope, math.Exp(fit.Intercept), fit.R2, nil
}

// Quadratic is the least-squares parabola y = A·x² + B·x + C, used by the
// analytical model to fit log F against log x (paper §5.3).
type Quadratic struct {
	A, B, C float64
}

// Eval evaluates the quadratic at x.
func (q Quadratic) Eval(x float64) float64 { return q.A*x*x + q.B*x + q.C }

// FitQuadratic fits y = A·x² + B·x + C by weighted least squares. Weights
// may be nil (all ones). It solves the 3×3 normal equations by Gaussian
// elimination with partial pivoting.
func FitQuadratic(xs, ys, weights []float64) (Quadratic, error) {
	if len(xs) != len(ys) {
		return Quadratic{}, fmt.Errorf("stats: mismatched lengths %d vs %d", len(xs), len(ys))
	}
	if weights != nil && len(weights) != len(xs) {
		return Quadratic{}, fmt.Errorf("stats: weight length %d vs %d points", len(weights), len(xs))
	}
	if len(xs) < 3 {
		return Quadratic{}, fmt.Errorf("stats: need at least 3 points, got %d", len(xs))
	}
	// Normal equations: M · [A B C]^T = rhs, with basis (x², x, 1).
	var m [3][3]float64
	var rhs [3]float64
	for i := range xs {
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		x := xs[i]
		basis := [3]float64{x * x, x, 1}
		for r := 0; r < 3; r++ {
			for c := 0; c < 3; c++ {
				m[r][c] += w * basis[r] * basis[c]
			}
			rhs[r] += w * basis[r] * ys[i]
		}
	}
	sol, err := solve3(m, rhs)
	if err != nil {
		return Quadratic{}, err
	}
	return Quadratic{A: sol[0], B: sol[1], C: sol[2]}, nil
}

// solve3 solves a 3×3 linear system with partial pivoting.
func solve3(m [3][3]float64, rhs [3]float64) ([3]float64, error) {
	for col := 0; col < 3; col++ {
		// Pivot.
		pivot := col
		for r := col + 1; r < 3; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(m[pivot][col]) < 1e-300 {
			return [3]float64{}, fmt.Errorf("stats: singular system (degenerate x values)")
		}
		m[col], m[pivot] = m[pivot], m[col]
		rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
		// Eliminate below.
		for r := col + 1; r < 3; r++ {
			f := m[r][col] / m[col][col]
			for c := col; c < 3; c++ {
				m[r][c] -= f * m[col][c]
			}
			rhs[r] -= f * rhs[col]
		}
	}
	var sol [3]float64
	for r := 2; r >= 0; r-- {
		sum := rhs[r]
		for c := r + 1; c < 3; c++ {
			sum -= m[r][c] * sol[c]
		}
		sol[r] = sum / m[r][r]
	}
	return sol, nil
}

// ChiSquare computes the chi-square statistic of observed counts against
// expected counts, pooling expected cells below minExpected into their
// neighbors to keep the statistic well behaved. It returns the statistic
// and the degrees of freedom (cells used − 1).
func ChiSquare(observed []int, expected []float64, minExpected float64) (stat float64, df int, err error) {
	if len(observed) != len(expected) {
		return 0, 0, fmt.Errorf("stats: mismatched lengths %d vs %d", len(observed), len(expected))
	}
	var obsPool float64
	var expPool float64
	cells := 0
	flush := func() {
		if expPool > 0 {
			d := obsPool - expPool
			stat += d * d / expPool
			cells++
		}
		obsPool, expPool = 0, 0
	}
	for i := range observed {
		if expected[i] < 0 {
			return 0, 0, fmt.Errorf("stats: negative expected count at %d", i)
		}
		obsPool += float64(observed[i])
		expPool += expected[i]
		if expPool >= minExpected {
			flush()
		}
	}
	flush()
	if cells < 2 {
		return 0, 0, fmt.Errorf("stats: fewer than 2 usable cells after pooling")
	}
	return stat, cells - 1, nil
}

// ChiSquareCritical999 returns an approximate 99.9% critical value for the
// chi-square distribution with df degrees of freedom, via the Wilson-
// Hilferty cube approximation. Tests use it as a loose acceptance gate.
func ChiSquareCritical999(df int) float64 {
	if df <= 0 {
		return 0
	}
	d := float64(df)
	z := 3.0902 // 99.9% standard normal quantile
	t := 1 - 2/(9*d) + z*math.Sqrt(2/(9*d))
	return d * t * t * t
}

// Package attention implements the rank-bias user-attention model of the
// paper's Section 5.3: the expected number of visits a result receives
// depends only on the rank position at which it appears, following the
// power law
//
//	F2(i) = θ · i^(−γ),  θ = v / Σ_{j=1..n} j^(−γ)
//
// with γ = 3/2 measured from AltaVista usage logs. The package provides
// both the expectation (VisitRate) and an exact sampler that draws rank
// positions from the normalized distribution in O(1) per draw via a Walker
// alias table built once at model construction. Prefix sums are kept for
// the CDF-style queries (Probability, CumulativeMass, TailMass).
package attention

import (
	"fmt"
	"math"

	"repro/internal/randutil"
)

// DefaultExponent is the rank-bias exponent γ reported for AltaVista logs.
const DefaultExponent = 1.5

// Model is an immutable rank-attention distribution over n rank positions.
type Model struct {
	n        int
	exponent float64
	visits   float64   // v: total visits per unit time
	prefix   []float64 // prefix[i] = Σ_{j=1..i} j^(−γ); prefix[0] = 0

	// Walker alias table: slot i accepts itself with probability
	// table[i].prob, otherwise redirects to table[i].alias. Sampling
	// costs one uniform draw regardless of n; prob and alias are
	// interleaved so each draw touches a single cache line.
	table []aliasSlot
}

type aliasSlot struct {
	prob  float64
	alias int32
}

// NewModel builds the attention model for n rank positions, a per-interval
// visit budget of visits, and the given power-law exponent. It returns an
// error for invalid shapes rather than panicking so that experiment configs
// can be validated uniformly.
func NewModel(n int, visits, exponent float64) (*Model, error) {
	if n <= 0 {
		return nil, fmt.Errorf("attention: need n > 0 rank positions, got %d", n)
	}
	if visits < 0 {
		return nil, fmt.Errorf("attention: negative visit budget %v", visits)
	}
	if exponent <= 0 {
		return nil, fmt.Errorf("attention: exponent must be positive, got %v", exponent)
	}
	m := &Model{n: n, exponent: exponent, visits: visits}
	m.prefix = make([]float64, n+1)
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += math.Pow(float64(i), -exponent)
		m.prefix[i] = sum
	}
	m.buildAlias()
	return m, nil
}

// buildAlias constructs the Walker/Vose alias table from the prefix sums.
// Construction is O(n); every SampleRank afterwards is O(1).
func (m *Model) buildAlias() {
	n := m.n
	total := m.prefix[n]
	m.table = make([]aliasSlot, n)
	// scaled[i] = n · p_i; partition into under- and over-full slots.
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		scaled[i] = (m.prefix[i+1] - m.prefix[i]) / total * float64(n)
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		m.table[s] = aliasSlot{prob: scaled[s], alias: l}
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	// Whatever remains is exactly full up to rounding error.
	for _, i := range large {
		m.table[i] = aliasSlot{prob: 1, alias: i}
	}
	for _, i := range small {
		m.table[i] = aliasSlot{prob: 1, alias: i}
	}
}

// Default builds the paper's model: exponent 3/2.
func Default(n int, visits float64) (*Model, error) {
	return NewModel(n, visits, DefaultExponent)
}

// N returns the number of rank positions.
func (m *Model) N() int { return m.n }

// Visits returns the per-interval visit budget v.
func (m *Model) Visits() float64 { return m.visits }

// Exponent returns the rank-bias exponent γ.
func (m *Model) Exponent() float64 { return m.exponent }

// Theta returns the normalization constant θ = v / Σ i^(−γ).
func (m *Model) Theta() float64 {
	return m.visits / m.prefix[m.n]
}

// VisitRate returns F2(rank): the expected number of visits per unit time
// to the result shown at the given 1-based rank. Ranks outside [1, n]
// receive zero attention.
func (m *Model) VisitRate(rank int) float64 {
	if rank < 1 || rank > m.n {
		return 0
	}
	return m.Theta() * math.Pow(float64(rank), -m.exponent)
}

// VisitRateAt evaluates F2 at a fractional rank position, used by the
// analytical model where expected ranks are continuous. Values below 1 are
// clamped to rank 1; values above n are clamped to rank n.
func (m *Model) VisitRateAt(rank float64) float64 {
	if rank < 1 {
		rank = 1
	}
	if rank > float64(m.n) {
		rank = float64(m.n)
	}
	return m.Theta() * math.Pow(rank, -m.exponent)
}

// CumulativeMass returns Σ_{i=1..rank} F2(i): the expected visits per unit
// time landing on the top `rank` positions. rank is clamped to [0, n].
func (m *Model) CumulativeMass(rank int) float64 {
	if rank < 0 {
		rank = 0
	}
	if rank > m.n {
		rank = m.n
	}
	return m.Theta() * m.prefix[rank]
}

// TailMass returns Σ_{i=rank..n} F2(i), the visit mass at and below rank.
func (m *Model) TailMass(rank int) float64 {
	if rank < 1 {
		rank = 1
	}
	if rank > m.n {
		return 0
	}
	return m.Theta() * (m.prefix[m.n] - m.prefix[rank-1])
}

// SampleRank draws a 1-based rank position with probability proportional
// to i^(−γ) in O(1): one uniform draw selects an alias-table slot with its
// integer part and resolves the accept/redirect coin with its fractional
// part (Vose's single-uniform variant).
func (m *Model) SampleRank(rng *randutil.RNG) int {
	u := rng.Float64() * float64(m.n)
	i := int(u)
	if i >= m.n { // guards the u == n edge from floating-point rounding
		i = m.n - 1
	}
	slot := m.table[i]
	if u-float64(i) < slot.prob {
		return i + 1
	}
	return int(slot.alias) + 1
}

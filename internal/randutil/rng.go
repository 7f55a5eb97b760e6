// Package randutil provides a deterministic, seedable random number
// generator and the discrete samplers the simulator depends on
// (Bernoulli, binomial, Poisson, exponential, weighted choice, shuffle).
//
// The generator is xoshiro256** seeded via splitmix64. We implement it
// ourselves rather than relying on math/rand so that experiment outputs are
// bit-for-bit reproducible across Go releases: the paper's figures are
// regenerated from fixed seeds and recorded in EXPERIMENTS.md.
package randutil

import "math"

// RNG is a xoshiro256** pseudo-random generator. The zero value is not
// usable; construct with New.
type RNG struct {
	s [4]uint64
}

// splitmix64 advances the seed expander state and returns the next value.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns an RNG seeded deterministically from seed.
func New(seed uint64) *RNG {
	r := &RNG{}
	state := seed
	for i := range r.s {
		r.s[i] = splitmix64(&state)
	}
	// xoshiro requires a nonzero state; splitmix64 of any seed yields one
	// with overwhelming probability, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("randutil: Intn with non-positive n")
	}
	return int(r.boundedUint64(uint64(n)))
}

// boundedUint64 returns a uniform value in [0, bound) using Lemire's
// nearly-divisionless method with rejection to remove modulo bias.
func (r *RNG) boundedUint64(bound uint64) uint64 {
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= -bound%bound {
			return hi
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	t := a1*b0 + (a0*b0)>>32
	lo = a * b
	hi = a1*b1 + t>>32 + (t&mask32+a0*b1)>>32
	return hi, lo
}

// Bernoulli returns true with probability p (clamped to [0, 1]).
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Geometric returns the number of failures before the first success in
// independent Bernoulli(p) trials, by inversion from one uniform draw:
// P(Geometric(p) >= k) = (1−p)^k. It returns 0 for p >= 1 and
// math.MaxInt for p <= 0 (a success that never comes), drawing nothing
// in either case, like Bernoulli.
func (r *RNG) Geometric(p float64) int {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		return math.MaxInt
	}
	// 1−u is in (0, 1], so the log is finite and the quotient >= 0.
	g := math.Floor(math.Log(1-r.Float64()) / math.Log1p(-p))
	if g >= math.MaxInt {
		return math.MaxInt
	}
	return int(g)
}

// NormFloat64 returns a standard normal variate via the polar
// Marsaglia method.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// Shuffle randomizes the order of the first n elements using swap, a
// Fisher-Yates shuffle.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		if i != j {
			swap(i, j)
		}
	}
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Binomial samples the number of successes among n independent trials with
// success probability p. It uses direct inversion for small n·p and a
// normal approximation with continuity correction (clamped and integerized)
// for large n·p; the approximation error is far below the stochastic noise
// of the simulations that consume it.
func (r *RNG) Binomial(n int, p float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	// Exploit symmetry so p <= 1/2, which keeps inversion loops short.
	if p > 0.5 {
		return n - r.Binomial(n, 1-p)
	}
	np := float64(n) * p
	if np < 30 || n < 64 {
		return r.binomialInversion(n, p)
	}
	// Normal approximation with continuity correction.
	sd := math.Sqrt(np * (1 - p))
	for {
		x := math.Floor(np + sd*r.NormFloat64() + 0.5)
		if x >= 0 && x <= float64(n) {
			return int(x)
		}
	}
}

// binomialInversion samples via sequential CDF inversion in O(np) expected
// steps.
func (r *RNG) binomialInversion(n int, p float64) int {
	q := 1 - p
	s := p / q
	a := float64(n+1) * s
	f := math.Pow(q, float64(n))
	u := r.Float64()
	x := 0
	for u > f {
		u -= f
		x++
		if x > n {
			// Floating-point underflow in the tail; resample.
			x = 0
			f = math.Pow(q, float64(n))
			u = r.Float64()
			continue
		}
		f *= a/float64(x) - s
	}
	return x
}

// Split derives an independent child generator. The child stream is a
// deterministic function of the parent state, so seeded experiments that
// fan out remain reproducible.
func (r *RNG) Split() *RNG {
	return New(r.Uint64() ^ 0xd2b74407b1ce6e93)
}

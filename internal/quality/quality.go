// Package quality models intrinsic page quality Q(p) ∈ [0, 1].
//
// The paper (§6.1) uses the power-law distribution reported for PageRank as
// the best available stand-in for a Web quality distribution, with the
// highest-quality page fixed at Q = 0.4 (the share of Internet users who
// frequent the most popular portal). We generate qualities
// deterministically from distribution quantiles so that a community of n
// pages always carries the same quality multiset for a given
// configuration.
package quality

import (
	"fmt"
	"math"
	"sort"
)

// DefaultMax is the quality of the best page in the paper's default
// community (§6.1).
const DefaultMax = 0.4

// DefaultAlpha is the power-law tail exponent used to shape the quality
// distribution after the PageRank distribution of Cho & Roy [5]; PageRank
// follows a power law with exponent ≈ 2.1.
const DefaultAlpha = 2.1

// Distribution produces page-quality values.
type Distribution interface {
	// Quantile returns the quality at cumulative probability u ∈ [0, 1),
	// with larger u giving larger quality.
	Quantile(u float64) float64
	// Max returns the largest quality the distribution can produce.
	Max() float64
}

// PowerLaw is a bounded Pareto-style distribution on [min, max] with tail
// exponent alpha: P(Q > q) ∝ q^(1−alpha). Most mass sits near min — on the
// Web, most pages are poor — while a thin tail reaches max.
type PowerLaw struct {
	MinQ  float64
	MaxQ  float64
	Alpha float64
}

// NewPowerLaw validates and constructs a bounded power-law distribution.
func NewPowerLaw(minQ, maxQ, alpha float64) (*PowerLaw, error) {
	if !(minQ > 0) || minQ >= maxQ {
		return nil, fmt.Errorf("quality: need 0 < min < max, got min=%v max=%v", minQ, maxQ)
	}
	if maxQ > 1 {
		return nil, fmt.Errorf("quality: max quality %v exceeds 1", maxQ)
	}
	if alpha <= 1 {
		return nil, fmt.Errorf("quality: alpha must exceed 1, got %v", alpha)
	}
	return &PowerLaw{MinQ: minQ, MaxQ: maxQ, Alpha: alpha}, nil
}

// Default returns the paper's quality distribution: a power law shaped like
// the PageRank distribution with the top page at quality 0.4.
func Default() *PowerLaw {
	d, err := NewPowerLaw(0.0004, DefaultMax, DefaultAlpha)
	if err != nil {
		panic("quality: default distribution invalid: " + err.Error())
	}
	return d
}

// Quantile inverts the bounded-Pareto CDF.
func (p *PowerLaw) Quantile(u float64) float64 {
	if u < 0 {
		u = 0
	}
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	// Bounded Pareto inverse CDF with shape k = alpha-1.
	k := p.Alpha - 1
	lk := math.Pow(p.MinQ, k)
	hk := math.Pow(p.MaxQ, k)
	return math.Pow(-(u*hk-u*lk-hk)/(hk*lk), -1/k)
}

// Max returns the distribution's upper bound.
func (p *PowerLaw) Max() float64 { return p.MaxQ }

// Uniform is a uniform quality distribution on [MinQ, MaxQ], useful as a
// contrast workload in tests and examples.
type Uniform struct {
	MinQ float64
	MaxQ float64
}

// Quantile returns MinQ + u·(MaxQ−MinQ).
func (d Uniform) Quantile(u float64) float64 {
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	return d.MinQ + u*(d.MaxQ-d.MinQ)
}

// Max returns MaxQ.
func (d Uniform) Max() float64 { return d.MaxQ }

// Point is a degenerate distribution: every page has the same quality.
type Point struct{ Q float64 }

// Quantile returns the point mass.
func (d Point) Quantile(float64) float64 { return d.Q }

// Max returns the point mass.
func (d Point) Max() float64 { return d.Q }

// Deterministic materializes n qualities from the distribution's quantiles
// at the midpoints (i+0.5)/n, sorted ascending. The multiset is identical
// across runs, which removes quality-sampling noise from experiment
// comparisons; the highest value approaches (but by midpoint construction
// does not necessarily equal) dist.Max().
func Deterministic(dist Distribution, n int) []float64 {
	qs := make([]float64, n)
	for i := range qs {
		qs[i] = dist.Quantile((float64(i) + 0.5) / float64(n))
	}
	sort.Float64s(qs)
	return qs
}

// DeterministicWithTop is Deterministic but forces the largest quality to
// exactly dist.Max(), matching the paper's "quality value of the
// highest-quality page set to 0.4".
func DeterministicWithTop(dist Distribution, n int) []float64 {
	qs := Deterministic(dist, n)
	if n > 0 {
		qs[n-1] = dist.Max()
	}
	return qs
}

// Bucket groups a sorted quality slice into at most maxBuckets
// (value, count) pairs by averaging runs of nearby values. The analytical
// model's Theorem-1 computation is linear in the number of distinct
// quality values, so bucketing makes the fixed-point solver cheap while
// preserving the distribution shape.
type Bucket struct {
	Q     float64 // representative quality
	Count int     // number of pages in the bucket
}

// Buckets partitions qs (any order) into ≤ maxBuckets buckets, each
// represented by its mean quality, ordered ascending.
//
// Sizing is geometric from the top: the best pages get singleton buckets
// and bucket sizes grow by ~1.6× downward, with the remaining budget
// spent on equal-count buckets over the low-quality bulk. Under a
// power-law quality distribution the few best pages carry most of the
// clicked quality, so averaging them into wide buckets would distort both
// the rank function F1 at high popularity and QPC; the geometric head
// keeps them essentially exact while the heavy low-quality tail — whose
// pages behave alike — is summarized coarsely.
func Buckets(qs []float64, maxBuckets int) []Bucket {
	n := len(qs)
	if n == 0 || maxBuckets <= 0 {
		return nil
	}
	sorted := append([]float64(nil), qs...)
	sort.Float64s(sorted)
	if maxBuckets > n {
		maxBuckets = n
	}
	mean := func(xs []float64) float64 {
		sum := 0.0
		for _, q := range xs {
			sum += q
		}
		return sum / float64(len(xs))
	}
	if maxBuckets == 1 {
		return []Bucket{{Q: mean(sorted), Count: n}}
	}
	// Geometric head from the top: sizes 1, 1, 2, 3, 5, 8, ... using at
	// most half the bucket budget and at most half the pages.
	headBudget := maxBuckets / 2
	var headSizes []int
	size := 1.0
	headPages := 0
	for len(headSizes) < headBudget && headPages+int(size) <= n/2 {
		headSizes = append(headSizes, int(size))
		headPages += int(size)
		size *= 1.6
		if size < float64(int(size))+1 {
			size = float64(int(size)) + 1 // always advance
		}
	}
	// Equal-count body over the remaining low-quality pages.
	body := n - headPages
	groups := maxBuckets - len(headSizes)
	if groups > body {
		groups = body
	}
	out := make([]Bucket, 0, maxBuckets)
	for b := 0; b < groups; b++ {
		lo := b * body / groups
		hi := (b + 1) * body / groups
		if hi <= lo {
			continue
		}
		out = append(out, Bucket{Q: mean(sorted[lo:hi]), Count: hi - lo})
	}
	// Head buckets, smallest quality first (ascending output).
	hi := n
	var head []Bucket
	for _, sz := range headSizes {
		lo := hi - sz
		head = append(head, Bucket{Q: mean(sorted[lo:hi]), Count: sz})
		hi = lo
	}
	for i := len(head) - 1; i >= 0; i-- {
		out = append(out, head[i])
	}
	return out
}

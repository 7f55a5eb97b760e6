// The lazy position resolver: the O(1) twin of the merge engine. Merge
// materializes the full list and serves as the executable specification;
// Resolver answers "which page occupies position j of a *fresh* random
// merge" in O(1) expected time per position using an exact
// binomial-counting argument, without building the list — the "more
// efficient implementation techniques" the paper alludes to. Their output
// distributions are identical (see the package tests).
package policy

import (
	"fmt"
	"math"

	"repro/internal/randutil"
)

// Resolver resolves single positions of a fresh random merge without
// materializing it. Each PageAt call behaves as if a brand-new merge had
// been performed (matching the live study, where every user sees an
// independent random order), so the marginal distribution of the page at
// position j equals that of Merge.
type Resolver struct {
	det    Source
	pool   Source
	k      int
	r      float64
	prefix int // number of protected det positions, min(k-1, det.Len())
	dAvail int // det entries in the merge zone
	pAvail int // pool entries
}

// NewResolver validates the inputs and builds a resolver. A nil det or
// pool is treated as empty.
func NewResolver(det, pool Source, k int, r float64) (*Resolver, error) {
	if k < 1 {
		return nil, fmt.Errorf("policy: starting point k must be >= 1, got %d", k)
	}
	if r < 0 || r > 1 {
		return nil, fmt.Errorf("policy: degree of randomization r must be in [0,1], got %v", r)
	}
	if det == nil {
		det = Slice(nil)
	}
	if pool == nil {
		pool = Slice(nil)
	}
	res := &Resolver{det: det, pool: pool, k: k, r: r}
	nd := det.Len()
	res.prefix = min(k-1, nd)
	res.dAvail = nd - res.prefix
	res.pAvail = pool.Len()
	return res, nil
}

// Total returns the length of the merged list.
func (res *Resolver) Total() int { return res.det.Len() + res.pool.Len() }

// PageAt returns the page occupying 1-based position pos in a fresh
// random merge. It panics if pos is out of [1, Total()].
//
// The algorithm: position pos sits t = pos − prefix slots into the merge
// zone. Among the s = t−1 earlier zone slots, the number D of pool items
// placed follows the law of a Bernoulli(r) walk truncated when either list
// exhausts. A single Binomial(s, r) draw b recovers D exactly:
//
//   - b ≥ pAvail: the walk exhausted the pool, so D = pAvail and slot t is
//     deterministic;
//   - s − b ≥ dAvail: the walk exhausted the deterministic list, so
//     D = s − dAvail and slot t is promoted;
//   - otherwise D = b and slot t is promoted with probability r.
//
// (A Binomial outcome within both caps implies the unconstrained walk
// never hit a cap, because the walk's counts are non-decreasing; outcomes
// at or beyond a cap map to the exhaustion cases with exactly the right
// probability mass.) Promoted slots hold a uniformly random pool page —
// position d of a uniform shuffle is marginally uniform.
func (res *Resolver) PageAt(pos int, rng *randutil.RNG) int {
	total := res.Total()
	if pos < 1 || pos > total {
		panic(fmt.Sprintf("policy: position %d out of range [1,%d]", pos, total))
	}
	if pos <= res.prefix {
		return res.det.At(pos - 1)
	}
	t := pos - res.prefix // 1-based slot in merge zone
	s := t - 1            // completed slots before it
	b := rng.Binomial(s, res.r)
	switch {
	case b >= res.pAvail:
		// Pool exhausted among earlier slots: slot t deterministic.
		d := res.pAvail
		return res.det.At(res.prefix + (t - d) - 1)
	case s-b >= res.dAvail:
		// Det list exhausted among earlier slots: slot t promoted.
		return res.pool.At(rng.Intn(res.pAvail))
	default:
		if rng.Float64() < res.r {
			return res.pool.At(rng.Intn(res.pAvail))
		}
		return res.det.At(res.prefix + (t - b) - 1)
	}
}

// PromotedProbability returns the exact probability that 1-based position
// pos holds a promoted (pool) page, by summing the binomial law. It is
// O(pos) and intended for analysis and tests, not hot paths.
func (res *Resolver) PromotedProbability(pos int) float64 {
	total := res.Total()
	if pos < 1 || pos > total || pos <= res.prefix || res.pAvail == 0 {
		return 0
	}
	t := pos - res.prefix
	s := t - 1
	if res.dAvail == 0 {
		return 1
	}
	// P(promoted) = P(det exhausted earlier) + r·P(neither list exhausted).
	pmf := binomialPMF(s, res.r)
	pExhaustDet := 0.0
	pWithin := 0.0
	for b := 0; b <= s; b++ {
		switch {
		case b >= res.pAvail:
			// deterministic slot; contributes nothing
		case s-b >= res.dAvail:
			pExhaustDet += pmf(b)
		default:
			pWithin += pmf(b)
		}
	}
	return pExhaustDet + pWithin*res.r
}

// binomialPMF returns a function evaluating the Binomial(s, r) probability
// mass at b, computed in log space for stability.
func binomialPMF(s int, r float64) func(b int) float64 {
	if s == 0 || r == 0 {
		return func(b int) float64 {
			if b == 0 {
				return 1
			}
			return 0
		}
	}
	if r == 1 {
		return func(b int) float64 {
			if b == s {
				return 1
			}
			return 0
		}
	}
	lf := make([]float64, s+1)
	for i := 1; i <= s; i++ {
		lf[i] = lf[i-1] + math.Log(float64(i))
	}
	lr, lq := math.Log(r), math.Log(1-r)
	return func(b int) float64 {
		if b < 0 || b > s {
			return 0
		}
		return math.Exp(lf[s] - lf[b] - lf[s-b] + float64(b)*lr + float64(s-b)*lq)
	}
}

// Materialize produces a full merged list via the resolver's inputs,
// equivalent to Merge. The result is appended to dst.
func (res *Resolver) Materialize(rng *randutil.RNG, dst []int) []int {
	return Merge(res.det, res.pool, res.k, res.r, rng, dst)
}

// MaterializeScratch is Materialize with a caller-owned shuffle buffer,
// for callers that materialize repeatedly (the simulator's QPC
// snapshots). It returns the merged list and the grown scratch.
func (res *Resolver) MaterializeScratch(rng *randutil.RNG, dst, scratch []int) (merged, scratchOut []int) {
	return MergeScratch(res.det, res.pool, res.k, res.r, rng, dst, scratch)
}

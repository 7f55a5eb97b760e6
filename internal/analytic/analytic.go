// Package analytic implements the paper's analytical model of page
// popularity evolution under deterministic and randomized rank promotion
// (Section 5).
//
// The model couples three pieces:
//
//   - Theorem 1: the steady-state distribution f(a|q) of awareness levels
//     a_i = i/m among pages of quality q, given the popularity-to-visit
//     function F;
//   - F1: the expected rank of a page of popularity x (Eq. 5), with the
//     selective-promotion correction F1′ and a derived uniform-promotion
//     variant (the paper omits its formula);
//   - F2: the rank-to-visit-rate attention law θ·rank^(−3/2).
//
// F(x) = F2(F1(x)) depends on f, and f depends on F, so the model is
// solved by fixed-point iteration: each round recomputes f from the
// current F, rebuilds F2∘F1 numerically on a log-spaced popularity grid,
// refits it as a quadratic in log-log space (log F = α(log x)² + β·log x +
// γ, §5.3), and damps the update in log space until convergence. F(0) is
// maintained as a separate point value, as the paper prescribes.
package analytic

import (
	"fmt"
	"math"

	"repro/internal/attention"
	"repro/internal/community"
	"repro/internal/policy"
	"repro/internal/quality"
	"repro/internal/stats"
)

// The fixed-point solver's settings.
const (
	// gridSize is the number of log-spaced popularity grid points, 64.
	gridSize = 64
	// maxIterations bounds the fixed-point loop at 200 rounds.
	maxIterations = 200
	// tolerance is the convergence threshold on max |Δ log F| over the
	// grid, 1e-4.
	tolerance = 1e-4
	// damping is the log-space step fraction toward the new F, 0.4.
	damping = 0.4
)

// Model is a solved analytical model for one community and policy.
type Model struct {
	comm    community.Config
	spec    policy.Spec
	k       int     // protected prefix: spec.Params, constant here
	r       float64 // degree of randomization, likewise
	buckets []quality.Bucket
	att     *attention.Model

	m      int     // monitored users
	lambda float64 // retirement rate 1/l
	n      int     // pages

	grid    []float64 // popularity grid (ascending, positive)
	fGrid   []float64 // F at grid points (post-fit)
	quad    stats.Quadratic
	f0      float64 // F(0)
	zSteady float64 // expected zero-awareness page count

	// Post-convergence exact-evaluation state: per-bucket awareness
	// suffix sums under the converged F, so that F2(F1′(x)) can be
	// evaluated directly at arbitrary x. The fitted quadratic is the
	// model's F (it feeds Theorem 1, matching the paper's method), but
	// measurement formulas (QPC, TBP, trajectories) use the exact
	// composition: the quadratic smooths the very steep head of the
	// attention law, and the head carries most of the clicked quality.
	suffix [][]float64

	iterations int
	converged  bool
}

// Solve builds and solves the model. buckets describe the community's
// quality multiset (see quality.Buckets); their counts must sum to
// comm.Pages. The policy's k and r are its Params, so the
// deterministic rule solves as (1, 0). Epsilon-decay is refused: the
// steady state below assumes a constant r, and its r moves with the
// zero-awareness fraction.
func Solve(comm community.Config, spec policy.Spec, buckets []quality.Bucket) (*Model, error) {
	if err := comm.Validate(); err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Rule == policy.RuleEpsilonDecay {
		return nil, fmt.Errorf("analytic: %s has a state-dependent r; the §5 steady state needs a constant one", spec.Rule)
	}
	k, r := spec.Params(policy.State{})
	if len(buckets) == 0 {
		return nil, fmt.Errorf("analytic: no quality buckets")
	}
	total := 0
	maxQ := 0.0
	for _, b := range buckets {
		if b.Count <= 0 || b.Q <= 0 || b.Q > 1 {
			return nil, fmt.Errorf("analytic: invalid bucket %+v", b)
		}
		total += b.Count
		if b.Q > maxQ {
			maxQ = b.Q
		}
	}
	if total != comm.Pages {
		return nil, fmt.Errorf("analytic: bucket counts sum to %d, community has %d pages", total, comm.Pages)
	}
	att, err := attention.NewModel(comm.Pages, comm.MonitoredVisitsPerDay(), comm.Exponent())
	if err != nil {
		return nil, err
	}
	mdl := &Model{
		comm:    comm,
		spec:    spec,
		k:       k,
		r:       r,
		buckets: buckets,
		att:     att,
		m:       comm.MonitoredUsers,
		lambda:  comm.RetirementRate(),
		n:       comm.Pages,
	}
	mdl.buildGrid(maxQ)
	mdl.solve()
	return mdl, nil
}

// buildGrid lays out log-spaced popularity values from the smallest
// positive popularity (one aware user on the worst page) to the largest
// (full awareness on the best page).
func (mdl *Model) buildGrid(maxQ float64) {
	minQ := mdl.buckets[0].Q
	for _, b := range mdl.buckets {
		if b.Q < minQ {
			minQ = b.Q
		}
	}
	lo := minQ / float64(mdl.m)
	hi := maxQ
	if lo >= hi {
		lo = hi / 1000
	}
	mdl.grid = make([]float64, gridSize)
	logLo, logHi := math.Log(lo), math.Log(hi)
	for i := range mdl.grid {
		frac := float64(i) / (gridSize - 1)
		mdl.grid[i] = math.Exp(logLo + frac*(logHi-logLo))
	}
	mdl.fGrid = make([]float64, gridSize)
}

// solve runs the fixed-point iteration.
func (mdl *Model) solve() {
	// F(0) and the steady-state zero-awareness count z form a closed
	// scalar fixed point: Theorem 1 gives f(a_0|q) = λ/(λ+F(0))
	// independently of q and of F at positive popularity, so
	// z = n·λ/(λ+F(0)), while F(0) is the rule-specific visit rate of a
	// zero-popularity page, a decreasing function of z. Solve it exactly
	// up front; the outer loop then only iterates the smooth x > 0 part.
	mdl.f0, mdl.zSteady = mdl.solveF0()

	v := mdl.att.Visits()
	// Initial guess: visits proportional to popularity, F(x) = v·x/φ with
	// φ the popularity mass at half awareness.
	phi := 0.0
	for _, b := range mdl.buckets {
		phi += 0.5 * b.Q * float64(b.Count)
	}
	if phi <= 0 {
		phi = 1
	}
	for i, x := range mdl.grid {
		mdl.fGrid[i] = math.Max(v*x/phi, 1e-12)
	}
	mdl.fitQuad()

	eta := damping // a float64 variable: 1-eta rounds in float64, not as an exact constant
	for iter := 0; iter < maxIterations; iter++ {
		mdl.iterations = iter + 1
		newGrid := mdl.recompute()
		// Damped log-space update and convergence check.
		maxDelta := 0.0
		for i := range mdl.grid {
			oldL := math.Log(mdl.fGrid[i])
			newL := math.Log(math.Max(newGrid[i], 1e-300))
			d := math.Abs(newL - oldL)
			if d > maxDelta {
				maxDelta = d
			}
			mdl.fGrid[i] = math.Exp((1-eta)*oldL + eta*newL)
		}
		mdl.fitQuad()
		if maxDelta < tolerance {
			mdl.converged = true
			break
		}
	}
	// Freeze the exact-evaluation state under the converged F.
	mdl.suffix = mdl.buildSuffixes()
}

// buildSuffixes computes, for each quality bucket, the awareness suffix
// sums suffix[b][i] = Σ_{j >= i} f(a_j | q_b) under the current F.
func (mdl *Model) buildSuffixes() [][]float64 {
	m := mdl.m
	suffix := make([][]float64, len(mdl.buckets))
	dist := make([]float64, m+1)
	for bi, b := range mdl.buckets {
		mdl.awarenessChain(b.Q, dist)
		suf := make([]float64, m+2)
		for i := m; i >= 0; i-- {
			suf[i] = suf[i+1] + dist[i]
		}
		suffix[bi] = suf
	}
	return suffix
}

// f1At evaluates Eq. 5 — the expected rank of a page of popularity x —
// from precomputed awareness suffix sums.
func (mdl *Model) f1At(x float64, suffix [][]float64) float64 {
	m := mdl.m
	count := 0.0
	for bi, b := range mdl.buckets {
		thresh := int(math.Floor(float64(m) * x / b.Q))
		if thresh >= m {
			continue
		}
		count += float64(b.Count) * suffix[bi][thresh+1]
	}
	return 1 + count
}

// adjustedRank applies the policy's promotion displacement to a raw
// expected rank.
func (mdl *Model) adjustedRank(rank float64) float64 {
	k := float64(mdl.k)
	r := mdl.r
	switch mdl.spec.Selection() {
	case policy.SelectUnexplored:
		if rank >= k {
			var shift float64
			if r >= 1 {
				shift = mdl.zSteady
			} else {
				shift = math.Min(r*(rank-k+1)/(1-r), mdl.zSteady)
			}
			rank += shift
		}
		return rank
	case policy.SelectCoin:
		return mdl.uniformDetPosition(rank)
	default:
		return rank
	}
}

// ExactF evaluates the converged visit-rate function without the
// quadratic smoothing: F2 composed with the policy-adjusted Eq. 5 rank.
// For uniform promotion it includes the pooled branch. Measurement
// methods (QPC, TBP, trajectories) use this form.
func (mdl *Model) ExactF(x float64) float64 {
	if x <= 0 {
		return mdl.f0
	}
	rank := mdl.adjustedRank(mdl.f1At(x, mdl.suffix))
	det := mdl.att.VisitRateAt(rank)
	if mdl.spec.Selection() == policy.SelectCoin {
		return mdl.r*mdl.poolVisitRateUniform() + (1-mdl.r)*det
	}
	return det
}

// zeroPopVisitRate evaluates the rule-specific expected visit rate of a
// zero-popularity page given a pool of z such pages.
func (mdl *Model) zeroPopVisitRate(z float64) float64 {
	switch mdl.spec.Selection() {
	case policy.SelectUnexplored:
		return mdl.poolVisitRateSelective(z)
	case policy.SelectCoin:
		r := mdl.r
		f10 := float64(mdl.n) - (z-1)/2
		det0 := mdl.att.VisitRateAt(mdl.uniformDetPosition(f10))
		return r*mdl.poolVisitRateUniform() + (1-r)*det0
	default:
		return mdl.zeroPopVisitRateNone(z)
	}
}

// solveF0 solves F(0) = g(z(F(0))), where z(f0) = n·λ/(λ+f0) and g is the
// rule-specific zero-popularity visit rate. Because g(z(f0)) increases in
// f0 (more visits → fewer undiscovered pages → more attention per pool
// page), the residual h(f0) = g(z(f0)) − f0 can cross zero several times:
// the system is bistable for aggressive selective promotion (a tiny pool
// concentrates enormous attention). The community starts from the
// all-undiscovered state (z = n, f0 ≈ 0), so the physically reached
// equilibrium is the FIRST crossing from below — a multiplicative upward
// scan locates the sign change, then bisection refines it.
func (mdl *Model) solveF0() (f0, z float64) {
	zOf := func(f0 float64) float64 {
		return float64(mdl.n) * mdl.lambda / (mdl.lambda + f0)
	}
	h := func(f0 float64) float64 {
		return mdl.zeroPopVisitRate(zOf(f0)) - f0
	}
	lo := 1e-12
	hi := 2 * mdl.att.VisitRate(1)
	if hi <= lo {
		hi = lo * 2
	}
	if h(lo) <= 0 {
		// Degenerate community: even the all-undiscovered pool sees no
		// attention.
		return lo, zOf(lo)
	}
	// Upward multiplicative scan for the first sign change.
	step := math.Pow(hi/lo, 1.0/4096)
	upper := hi
	for x := lo * step; x <= hi; x *= step {
		if h(x) <= 0 {
			upper = x
			break
		}
		lo = x
	}
	// Bisect within [lo, upper].
	for i := 0; i < 80; i++ {
		mid := math.Sqrt(lo * upper)
		if h(mid) > 0 {
			lo = mid
		} else {
			upper = mid
		}
	}
	f0 = math.Sqrt(lo * upper)
	return f0, zOf(f0)
}

// fitQuad refits log F = α(log x)² + β log x + γ over the grid, weighting
// the extreme points heavily so the curve pins them (the paper adjusts the
// fit "to fit the extreme points ... especially carefully").
func (mdl *Model) fitQuad() {
	g := len(mdl.grid)
	xs := make([]float64, g)
	ys := make([]float64, g)
	ws := make([]float64, g)
	for i := range mdl.grid {
		xs[i] = math.Log(mdl.grid[i])
		ys[i] = math.Log(math.Max(mdl.fGrid[i], 1e-300))
		ws[i] = 1
	}
	ws[0], ws[g-1] = 25, 25
	quad, err := stats.FitQuadratic(xs, ys, ws)
	if err != nil {
		// Degenerate grid (should not happen after validation); fall back
		// to a flat fit through the mean.
		mean := 0.0
		for _, y := range ys {
			mean += y
		}
		quad = stats.Quadratic{C: mean / float64(g)}
	}
	mdl.quad = quad
}

// F evaluates the solved popularity-to-visit-rate function F(x) for
// popularity x ∈ [0, 1]. F(0) is the separately tracked point value.
func (mdl *Model) F(x float64) float64 {
	if x <= 0 {
		return mdl.f0
	}
	lo, hi := mdl.grid[0], mdl.grid[len(mdl.grid)-1]
	if x < lo {
		// Blend toward F(0) below the grid rather than extrapolating the
		// quadratic, which can explode in log space.
		fLo := math.Exp(mdl.quad.Eval(math.Log(lo)))
		return mdl.f0 + (fLo-mdl.f0)*(x/lo)
	}
	if x > hi {
		x = hi
	}
	return math.Exp(mdl.quad.Eval(math.Log(x)))
}

// Converged reports whether the solver met its tolerance.
func (mdl *Model) Converged() bool { return mdl.converged }

// awarenessChain fills dist[i] with f(a_i|q) for i = 0..m: the
// steady-state awareness distribution of Theorem 1.
//
// Note a deliberate correction to the paper's printed Equation 9. Starting
// from the paper's own balance equation (Eq. 8) and taking dt → 0 yields
//
//	f(a_i)·(λ + F(q·a_i)·(1−a_i)) = f(a_{i−1})·F(q·a_{i−1})·(1−a_{i−1})
//
// i.e. the denominator is λ + F·(1−a), whereas the printed theorem
// distributes the (1−a_i) factor over λ as well. The printed form divides
// by zero at full awareness (a_m = 1) and its masses do not sum to one;
// the corrected form handles a_m naturally (transition rate zero, outflow
// by death only) and is exactly normalized, which the package tests
// verify against the closed-form z = n·λ/(λ+F(0)).
func (mdl *Model) awarenessChain(q float64, dist []float64) {
	m := mdl.m
	lam := mdl.lambda
	dist[0] = lam / (lam + mdl.F(0))
	for i := 1; i <= m; i++ {
		aPrev := float64(i-1) / float64(m)
		a := float64(i) / float64(m)
		ratePrev := mdl.F(aPrev*q) * (1 - aPrev)
		rate := mdl.F(a*q) * (1 - a)
		dist[i] = dist[i-1] * ratePrev / (lam + rate)
		if math.IsInf(dist[i], 0) || math.IsNaN(dist[i]) {
			dist[i] = 0
		}
	}
	// The chain sums to 1 analytically; normalize away float drift.
	sum := 0.0
	for _, f := range dist {
		sum += f
	}
	if sum > 0 {
		for i := range dist {
			dist[i] /= sum
		}
	}
}

// AwarenessDistribution returns f(a_i|q) for i = 0..m (Theorem 1) under
// the solved F.
func (mdl *Model) AwarenessDistribution(q float64) []float64 {
	dist := make([]float64, mdl.m+1)
	mdl.awarenessChain(q, dist)
	return dist
}

// ExpectedZeroAware returns z, the expected number of pages with zero
// awareness in steady state.
func (mdl *Model) ExpectedZeroAware() float64 {
	z := 0.0
	dist := make([]float64, mdl.m+1)
	for _, b := range mdl.buckets {
		mdl.awarenessChain(b.Q, dist)
		z += dist[0] * float64(b.Count)
	}
	return z
}

// recompute performs one fixed-point round: from the current F, rebuild
// the awareness distributions, the rank function F1 (with the policy's
// promotion correction), and return the new F = F2∘F1 on the grid.
func (mdl *Model) recompute() (newGrid []float64) {
	suffix := mdl.buildSuffixes()
	newGrid = make([]float64, len(mdl.grid))
	r := mdl.r
	poolRate := 0.0
	if mdl.spec.Selection() == policy.SelectCoin {
		poolRate = mdl.poolVisitRateUniform()
	}
	for gi, x := range mdl.grid {
		rank := mdl.adjustedRank(mdl.f1At(x, suffix))
		det := mdl.att.VisitRateAt(rank)
		if mdl.spec.Selection() == policy.SelectCoin {
			det = r*poolRate + (1-r)*det
		}
		// Keep strictly positive for log-space fitting.
		newGrid[gi] = math.Max(det, 1e-300)
	}
	return newGrid
}

// zeroPopVisitRateNone averages F2 over the block of z zero-popularity
// pages parked at the bottom of the deterministic ranking.
func (mdl *Model) zeroPopVisitRateNone(z float64) float64 {
	if z < 1 {
		z = 1
	}
	start := mdl.n - int(math.Ceil(z)) + 1
	if start < 1 {
		start = 1
	}
	return mdl.att.TailMass(start) / z
}

// poolVisitRateSelective computes the expected visit rate of a pool
// (zero-awareness) page under selective promotion: promoted slots occupy
// positions k, k+1, ... with probability r each until the pool of z pages
// is exhausted, so the pool's visit mass is r·Σ F2(i) over roughly z/r
// slots starting at k.
func (mdl *Model) poolVisitRateSelective(z float64) float64 {
	r := mdl.r
	k := mdl.k
	if z < 1e-9 {
		return mdl.zeroPopVisitRateNone(1)
	}
	if r <= 0 {
		return mdl.zeroPopVisitRateNone(z)
	}
	span := int(math.Ceil(z / r))
	end := k - 1 + span
	if end > mdl.n {
		end = mdl.n
	}
	mass := r * (mdl.att.CumulativeMass(end) - mdl.att.CumulativeMass(k-1))
	// Any attention mass beyond the deterministic list's end also lands on
	// pool pages (the merge drains the pool at the bottom), but with z ≪ n
	// this term is negligible; the dominant term above suffices.
	return mass / z
}

// poolVisitRateUniform computes the expected visit rate of a pooled page
// under uniform promotion: the pool holds r·n pages in expectation and
// promoted slots carry probability r from position k onward, so the pool
// mass is r·TailMass(k) spread over r·n pages.
func (mdl *Model) poolVisitRateUniform() float64 {
	k := mdl.k
	n := float64(mdl.n)
	if mdl.r <= 0 {
		return 0
	}
	return mdl.att.TailMass(k) / n
}

// uniformDetPosition maps a full-population expected rank (Eq. 5) to the
// final presented position for a page that stayed out of the uniform
// pool: its det-list rank contracts to 1 + (1−r)(F1−1) because each
// better-ranked page survives into Ld with probability 1−r, and positions
// past the protected prefix dilate by 1/(1−r) because each presented slot
// draws from Ld with probability 1−r.
func (mdl *Model) uniformDetPosition(f1 float64) float64 {
	r := mdl.r
	k := float64(mdl.k)
	if r >= 1 {
		return float64(mdl.n)
	}
	j := 1 + (1-r)*(f1-1)
	if j < k {
		return j
	}
	return (k - 1) + (j-(k-1))/(1-r)
}

// AbsoluteQPC returns expected quality-per-click (§5.2): the
// visit-weighted mean quality over the steady-state awareness
// distribution.
func (mdl *Model) AbsoluteQPC() float64 {
	num, den := 0.0, 0.0
	dist := make([]float64, mdl.m+1)
	for _, b := range mdl.buckets {
		mdl.awarenessChain(b.Q, dist)
		for i, f := range dist {
			a := float64(i) / float64(mdl.m)
			visits := mdl.ExactF(a*b.Q) * f * float64(b.Count)
			num += visits * b.Q
			den += visits
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// IdealQPC returns the QPC of a hypothetical engine that ranks by true
// quality: the F2-weighted mean of qualities in descending order. This is
// the paper's normalization constant (QPC = 1.0).
func (mdl *Model) IdealQPC() float64 {
	// Buckets ascending by construction; walk from the best down,
	// assigning each bucket its block of rank positions.
	num := 0.0
	rank := 0
	for bi := len(mdl.buckets) - 1; bi >= 0; bi-- {
		b := mdl.buckets[bi]
		mass := mdl.att.CumulativeMass(rank+b.Count) - mdl.att.CumulativeMass(rank)
		num += mass * b.Q
		rank += b.Count
	}
	total := mdl.att.CumulativeMass(mdl.n)
	if total == 0 {
		return 0
	}
	return num / total
}

// QPC returns normalized quality-per-click: AbsoluteQPC / IdealQPC, so
// that 1.0 is the quality-ordering upper bound (§6.3).
func (mdl *Model) QPC() float64 {
	ideal := mdl.IdealQPC()
	if ideal == 0 {
		return 0
	}
	return mdl.AbsoluteQPC() / ideal
}

// sojournTimes returns the expected number of days a page of quality q
// spends at each awareness level before gaining its next aware user.
// A page at awareness a_i receives F(a_i·q) monitored visits per day and
// each converts a new user with probability (1−a_i), so level i→i+1
// transitions at rate F(a_i·q)·(1−a_i) per day. The awareness process is a
// pure birth chain (with killing by page death, which TBP deliberately
// ignores: it measures how long a surviving page takes to become
// popular).
func (mdl *Model) sojournTimes(q float64) []float64 {
	m := mdl.m
	out := make([]float64, m)
	for i := 0; i < m; i++ {
		a := float64(i) / float64(m)
		rate := mdl.ExactF(a*q) * (1 - a)
		if rate <= 0 {
			out[i] = math.Inf(1)
			continue
		}
		out[i] = 1 / rate
	}
	return out
}

// PopularityTrajectory returns the expected popularity of a single page
// of quality q at each day from birth: the awareness birth chain
// parameterized by its expected sojourn times, which yields the nearly
// step-function curves the paper describes. The returned slice has days+1
// samples with P(0) = 0.
func (mdl *Model) PopularityTrajectory(q float64, days int) []float64 {
	soj := mdl.sojournTimes(q)
	out := make([]float64, days+1)
	level := 0
	cum := soj[0]
	for d := 1; d <= days; d++ {
		for level < mdl.m-1 && float64(d) >= cum {
			level++
			cum += soj[level]
		}
		if float64(d) >= cum {
			level = mdl.m
		}
		out[d] = float64(level) / float64(mdl.m) * q
	}
	return out
}

// VisitTrajectory returns the expected daily visit-rate curve F(P(t)) of
// a single page of quality q from birth (Figure 2's y-axis).
func (mdl *Model) VisitTrajectory(q float64, days int) []float64 {
	pop := mdl.PopularityTrajectory(q, days)
	out := make([]float64, len(pop))
	for i, p := range pop {
		out[i] = mdl.F(p)
	}
	return out
}

// TBP returns the expected time (days) for a page of quality q to become
// popular: to reach awareness of at least 99% of the monitored users,
// i.e. popularity exceeding 99% of its quality (§3.2). It is the expected
// first-passage time of the awareness birth chain — the sum of expected
// sojourn times below the target level. The value can far exceed a page
// lifetime (entrenchment is exactly the regime where most pages die
// before becoming popular).
func (mdl *Model) TBP(q float64) float64 {
	target := int(math.Ceil(0.99 * float64(mdl.m)))
	soj := mdl.sojournTimes(q)
	total := 0.0
	for i := 0; i < target && i < len(soj); i++ {
		total += soj[i]
	}
	return total
}

// TradeoffAreas integrates Figure 2's two shaded regions against a
// baseline model over one expected page lifetime: explorationBenefit is
// the extra visit volume the promoted page collects while the baseline
// page is still undiscovered; exploitationLoss is the visit volume the
// promoted page gives up after both are popular.
func (mdl *Model) TradeoffAreas(baseline *Model, q float64, days int) (explorationBenefit, exploitationLoss float64) {
	with := mdl.VisitTrajectory(q, days)
	without := baseline.VisitTrajectory(q, days)
	for i := range with {
		d := with[i] - without[i]
		if d > 0 {
			explorationBenefit += d
		} else {
			exploitationLoss -= d
		}
	}
	return explorationBenefit, exploitationLoss
}

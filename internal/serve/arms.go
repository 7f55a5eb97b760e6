// Online experimentation: named policy arms served side by side, the
// online analogue of the paper's §5–6 policy comparison. Config.Arms
// declares the arms with traffic weights; each /rank request is assigned
// an arm — by deterministic hash of a caller-supplied unit ID (stable
// bucketing: the same unit always sees the same arm at a fixed arm set),
// or by a weighted draw from the request RNG when no unit is given — and
// ranks through that arm's policy on the shared merge engine. Feedback
// events echo the serving arm, so per-arm telemetry (impressions, clicks,
// zero-awareness discoveries, time-to-first-click) accumulates alongside
// the corpus-wide counters and is exposed by /stats and /experiment.
package serve

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/policy"
	"repro/internal/randutil"
)

// Arm declares one experiment arm: a named ranking policy and its share
// of traffic.
type Arm struct {
	// Name identifies the arm in requests, telemetry and cache keys.
	Name string `json:"name"`
	// Policy is the arm's ranking policy.
	Policy policy.Spec `json:"policy"`
	// Weight is the arm's relative traffic share; weights are normalized
	// over the declared arms and must sum to a positive value.
	Weight float64 `json:"weight"`
}

// armState is one arm's runtime: the validated policy, its bucketing
// bounds and its serving-side request counter. The feedback-side
// telemetry lives in per-shard armTally slices (indexed by idx), written
// only by the owning apply loops — which is what lets each shard
// snapshot its contribution consistently with its own WAL position, so
// arm telemetry survives crashes exactly.
type armState struct {
	name string
	spec policy.Spec
	// idx is the arm's position in declaration order: the index of its
	// tally in every shard's tallies slice.
	idx int
	// weight is the declared (unnormalized) weight; cum is the arm's
	// cumulative upper bound after normalization, so assignment walks the
	// arms until the unit's point falls below cum. The arm's name also
	// prefixes its hot-query cache keys (see cacheKey).
	weight float64
	cum    float64

	// requests counts /rank requests served by the arm. It is a
	// serving-run counter, not event-sourced state: rank requests are not
	// logged, so it restarts at zero after recovery.
	requests atomic.Uint64
}

// armTally is one shard's feedback-telemetry contribution for one arm,
// written only by the shard's apply loop and summed lock-free by
// reports.
type armTally struct {
	impressions atomic.Uint64
	clicks      atomic.Uint64
	// discoveries counts first clicks that promoted a page out of the
	// zero-awareness pool under feedback attributed to the arm — the
	// exploration payoff the paper's selective rule buys.
	discoveries atomic.Uint64
	// ttfcSumNanos and ttfcCount accumulate time-to-first-click over the
	// arm's discoveries that had an earlier applied impression: the gap
	// between a page's first applied impression and the click that
	// discovered it.
	ttfcSumNanos atomic.Int64
	ttfcCount    atomic.Uint64
}

// ArmReport is one arm's accounting snapshot.
type ArmReport struct {
	Name   string  `json:"name"`
	Policy string  `json:"policy"`
	Weight float64 `json:"weight"`
	// Requests counts /rank requests served by the arm.
	Requests uint64 `json:"requests"`
	// Impressions and Clicks count feedback applied under the arm's
	// attribution.
	Impressions uint64 `json:"impressions"`
	Clicks      uint64 `json:"clicks"`
	// Discoveries counts zero-awareness pages first clicked — and thereby
	// promoted into the deterministic ranking — under this arm.
	Discoveries uint64 `json:"discoveries"`
	// MeanTTFCMillis is the mean time-to-first-click over the arm's
	// discoveries with a measurable first impression, in milliseconds
	// (0 when none completed).
	MeanTTFCMillis float64 `json:"mean_ttfc_millis"`
}

// DefaultArmName names the implicit single arm serving Config.Policy when
// no Arms are declared.
const DefaultArmName = "default"

// buildArms validates the configured arms (or the implicit single-policy
// arm) and builds their runtime states with normalized cumulative weights.
func buildArms(cfg Config) ([]*armState, error) {
	decls := cfg.Arms
	if len(decls) == 0 {
		decls = []Arm{{Name: DefaultArmName, Policy: cfg.Policy, Weight: 1}}
	}
	arms := make([]*armState, 0, len(decls))
	seen := make(map[string]bool, len(decls))
	total := 0.0
	for i, d := range decls {
		if d.Name == "" {
			return nil, fmt.Errorf("serve: arm %d has no name", i)
		}
		if seen[d.Name] {
			return nil, fmt.Errorf("serve: duplicate arm name %q", d.Name)
		}
		seen[d.Name] = true
		// NaN compares false against everything, so an explicit finiteness
		// check is required — a bare `< 0` would admit NaN/Inf weights and
		// silently break the cumulative bucketing bounds.
		if d.Weight < 0 || math.IsNaN(d.Weight) || math.IsInf(d.Weight, 0) {
			return nil, fmt.Errorf("serve: arm %q has negative or non-finite weight %v", d.Name, d.Weight)
		}
		if err := d.Policy.Validate(); err != nil {
			return nil, fmt.Errorf("serve: arm %q: %w", d.Name, err)
		}
		total += d.Weight
		arms = append(arms, &armState{
			name:   d.Name,
			spec:   d.Policy,
			idx:    len(arms),
			weight: d.Weight,
		})
	}
	// Inverted comparison so a pathological NaN total (impossible given
	// the per-arm check above, but cheap to guard) is also rejected.
	if !(total > 0) {
		return nil, fmt.Errorf("serve: arm weights sum to %v, need a positive total", total)
	}
	cum := 0.0
	for _, a := range arms {
		cum += a.weight / total
		a.cum = cum
	}
	// Guard the last bound against floating-point shortfall so every unit
	// point in [0,1) lands in some arm.
	arms[len(arms)-1].cum = 1
	return arms, nil
}

// unitPoint hashes a unit ID to a deterministic point in [0,1):
// FNV-1a 64 finalized through a splitmix64-style mixer so consecutive
// unit IDs ("user-1", "user-2", …) spread uniformly.
func unitPoint(unit string) float64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(unit); i++ {
		h ^= uint64(unit[i])
		h *= prime64
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return float64(h>>11) / (1 << 53)
}

// armFor assigns the request's arm. A named unit buckets by hash —
// stable across requests and processes for a fixed arm set. Without a
// unit, multi-arm corpora draw from the request RNG by weight; the
// single-arm fast path consumes no randomness, keeping every pre-arms
// RNG draw sequence intact.
func (c *Corpus) armFor(unit string, rng *randutil.RNG) *armState {
	if len(c.arms) == 1 {
		return c.arms[0]
	}
	var u float64
	if unit != "" {
		u = unitPoint(unit)
	} else {
		u = rng.Float64()
	}
	for _, a := range c.arms {
		if u < a.cum {
			return a
		}
	}
	return c.arms[len(c.arms)-1]
}

// armByName resolves a declared arm, for forced-arm requests and
// feedback attribution.
func (c *Corpus) armByName(name string) (*armState, bool) {
	a, ok := c.armIdx[name]
	return a, ok
}

// PolicyLabel describes the serving policy for telemetry: the single
// arm's policy spec, or the experiment shape when several arms serve
// (their individual policies are in the arms report).
func (c *Corpus) PolicyLabel() string {
	if len(c.arms) == 1 {
		return c.arms[0].spec.String()
	}
	return fmt.Sprintf("experiment(%d arms)", len(c.arms))
}

// Arms reports every arm's current accounting, in declaration order,
// summing the per-shard tally contributions. On a recovered corpus the
// feedback-side counters (impressions, clicks, discoveries, TTFC) are
// restored from disk; Requests counts this serving run only.
func (c *Corpus) Arms() []ArmReport {
	out := make([]ArmReport, len(c.arms))
	for i, a := range c.arms {
		r := ArmReport{
			Name:     a.name,
			Policy:   a.spec.String(),
			Weight:   a.weight,
			Requests: a.requests.Load(),
		}
		var ttfcSum int64
		var ttfcN uint64
		for _, sh := range c.shards {
			t := &sh.tallies[i]
			r.Impressions += t.impressions.Load()
			r.Clicks += t.clicks.Load()
			r.Discoveries += t.discoveries.Load()
			ttfcSum += t.ttfcSumNanos.Load()
			ttfcN += t.ttfcCount.Load()
		}
		if ttfcN > 0 {
			r.MeanTTFCMillis = float64(ttfcSum) / float64(ttfcN) / 1e6
		}
		out[i] = r
	}
	return out
}

// Package policy unifies the repository's ranking rules behind one
// pluggable abstraction. The paper's contribution is a *comparison* of
// ranking rules — pure deterministic, uniform random, and partially
// randomized (selective) ranking — and every surface that ranks (the
// offline Ranker, the §6 community simulator, the §5 analytical model,
// the figure experiments and the online serving path) names its rule as a
// Spec, compiles it once into a Policy and runs the same scratch-reusing,
// zero-alloc merge engine (merge.go) or one of its twins: the lazy
// position resolver (resolver.go) for the simulator, and the bounded
// merge (bounded.go), which fills only the n served positions and draws
// each promoted page lazily, for the online service.
//
// A Policy answers three questions per request:
//
//   - Selection: how candidates split into the deterministic list and the
//     promotion pool (never, by an r-biased coin per candidate, or by
//     zero-awareness membership — the paper's none/uniform/selective
//     rules);
//   - Params: the §4 merge parameters (protected prefix k, degree of
//     randomization r) for a request observing the given corpus State —
//     constant for the paper's rules, state-dependent for the
//     epsilon-decay variant that anneals randomization as awareness
//     grows;
//   - Spec: the declarative form, for telemetry, flags and JSON.
package policy

import (
	"fmt"
	"strings"
)

// Selection is how a policy decides pool membership.
type Selection int

const (
	// SelectNone pools nothing: pure deterministic popularity ranking.
	SelectNone Selection = iota
	// SelectCoin pools each candidate independently with probability r
	// (the paper's uniform rule). Splitting consumes one Bernoulli draw
	// per candidate, in candidate order.
	SelectCoin
	// SelectUnexplored pools exactly the zero-awareness candidates (the
	// paper's selective rule, and the epsilon-decay variant's base).
	SelectUnexplored
)

// State is the corpus-level signal state-dependent policies read when
// choosing merge parameters. Callers fill what they know; the zero State
// is always acceptable (constant policies ignore it, epsilon-decay falls
// back to its full randomization degree).
type State struct {
	// Pages is the total candidate population.
	Pages int
	// ZeroAware is how many of them have zero awareness.
	ZeroAware int
}

// Policy is one complete rank-promotion configuration.
type Policy interface {
	// Spec returns the policy's declarative form.
	Spec() Spec
	// Selection reports how pool membership is decided.
	Selection() Selection
	// Params returns the §4 merge parameters — protected prefix k and
	// degree of randomization r — for a request observing st. It must not
	// consume randomness; the same st always yields the same parameters.
	Params(st State) (k int, r float64)
}

// Rule names accepted by Spec and ParseSpec.
const (
	RuleDeterministic = "deterministic"
	RuleNone          = "none" // alias of deterministic, the paper's label
	RuleUniform       = "uniform"
	RuleSelective     = "selective"
	RuleEpsilonDecay  = "epsilon-decay"
)

// Spec is the declarative, flag- and JSON-friendly form of a policy.
type Spec struct {
	// Rule is one of the Rule* names above.
	Rule string `json:"rule"`
	// K is the protected prefix length (positions ranked better than K
	// are never perturbed); ignored by the deterministic rule.
	K int `json:"k,omitempty"`
	// R is the degree of randomization; for epsilon-decay it is the
	// starting degree, served while everything is still unexplored.
	R float64 `json:"r,omitempty"`
	// RMin is the epsilon-decay floor: the degree of randomization served
	// once every page is explored. Ignored by the other rules.
	RMin float64 `json:"rmin,omitempty"`
}

// Recommended is the paper's §6.4 recipe: selective promotion, 10%
// randomization, starting at the top rank position.
func Recommended() Spec { return Spec{Rule: RuleSelective, K: 1, R: 0.1} }

// RecommendedSafe is the variant that never perturbs the top result (k=2).
func RecommendedSafe() Spec { return Spec{Rule: RuleSelective, K: 2, R: 0.1} }

// String renders the spec for telemetry and experiment tables.
func (s Spec) String() string {
	switch s.Rule {
	case RuleDeterministic, RuleNone, "":
		return "none"
	case RuleEpsilonDecay:
		return fmt.Sprintf("epsilon-decay(k=%d,r=%g,rmin=%g)", s.K, s.R, s.RMin)
	default:
		return fmt.Sprintf("%s(k=%d,r=%g)", s.Rule, s.K, s.R)
	}
}

// Compile validates the spec and returns the runnable policy.
func (s Spec) Compile() (Policy, error) {
	switch s.Rule {
	case RuleDeterministic, RuleNone, "":
		return Deterministic(), nil
	case RuleUniform:
		return Uniform(s.K, s.R)
	case RuleSelective:
		return Selective(s.K, s.R)
	case RuleEpsilonDecay:
		return EpsilonDecay(s.K, s.R, s.RMin)
	default:
		return nil, fmt.Errorf("policy: unknown rule %q", s.Rule)
	}
}

// Compact renders the spec in the colon form ParseSpec reads back —
// the representation flags and on-disk metadata use. Compact and
// ParseSpec are round-trip partners: a new rule or parameter must
// update both (and the round-trip test pins that).
func (s Spec) Compact() string {
	switch s.Rule {
	case RuleDeterministic, RuleNone, "":
		return "none"
	case RuleEpsilonDecay:
		return fmt.Sprintf("%s:%d:%g:%g", s.Rule, s.K, s.R, s.RMin)
	default:
		return fmt.Sprintf("%s:%d:%g", s.Rule, s.K, s.R)
	}
}

// ParseSpec parses the compact colon form used by flags:
// "rule", "rule:k:r" or "epsilon-decay:k:r:rmin" — e.g.
// "selective:1:0.1" or "epsilon-decay:2:0.2:0.02".
func ParseSpec(s string) (Spec, error) {
	parts := strings.Split(s, ":")
	spec := Spec{Rule: strings.TrimSpace(parts[0])}
	if spec.Rule == "" {
		return Spec{}, fmt.Errorf("policy: empty rule in %q", s)
	}
	bad := func(err error) (Spec, error) {
		return Spec{}, fmt.Errorf("policy: bad spec %q: %w", s, err)
	}
	if len(parts) > 1 {
		if _, err := fmt.Sscanf(parts[1], "%d", &spec.K); err != nil {
			return bad(fmt.Errorf("k %q: %v", parts[1], err))
		}
	}
	if len(parts) > 2 {
		if _, err := fmt.Sscanf(parts[2], "%g", &spec.R); err != nil {
			return bad(fmt.Errorf("r %q: %v", parts[2], err))
		}
	}
	if len(parts) > 3 {
		if spec.Rule != RuleEpsilonDecay {
			return bad(fmt.Errorf("rule %q takes at most rule:k:r", spec.Rule))
		}
		if _, err := fmt.Sscanf(parts[3], "%g", &spec.RMin); err != nil {
			return bad(fmt.Errorf("rmin %q: %v", parts[3], err))
		}
	}
	if len(parts) > 4 {
		return bad(fmt.Errorf("too many fields"))
	}
	if _, err := spec.Compile(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

// validateKR is the shared parameter check of the rules that read k and r.
func validateKR(rule string, k int, r float64) error {
	if k < 1 {
		return fmt.Errorf("policy: %s starting point k must be >= 1, got %d", rule, k)
	}
	if r < 0 || r > 1 {
		return fmt.Errorf("policy: %s degree of randomization r must be in [0,1], got %v", rule, r)
	}
	return nil
}

// deterministic is the promotion-free rule.
type deterministic struct{}

func (deterministic) Spec() Spec                  { return Spec{Rule: RuleDeterministic} }
func (deterministic) Selection() Selection        { return SelectNone }
func (deterministic) Params(State) (int, float64) { return 1, 0 }

// Deterministic returns the pure popularity-ranking policy (the paper's
// "none" rule): nothing is pooled, nothing is perturbed.
func Deterministic() Policy { return deterministic{} }

// uniform pools every candidate independently with probability r.
type uniform struct {
	k int
	r float64
}

func (u uniform) Spec() Spec                  { return Spec{Rule: RuleUniform, K: u.k, R: u.r} }
func (uniform) Selection() Selection          { return SelectCoin }
func (u uniform) Params(State) (int, float64) { return u.k, u.r }

// Uniform returns the paper's uniform randomization rule with protected
// prefix k and degree of randomization r.
func Uniform(k int, r float64) (Policy, error) {
	if err := validateKR(RuleUniform, k, r); err != nil {
		return nil, err
	}
	return uniform{k: k, r: r}, nil
}

// selective pools exactly the zero-awareness candidates.
type selective struct {
	k int
	r float64
}

func (s selective) Spec() Spec                  { return Spec{Rule: RuleSelective, K: s.k, R: s.r} }
func (selective) Selection() Selection          { return SelectUnexplored }
func (s selective) Params(State) (int, float64) { return s.k, s.r }

// Selective returns the paper's recommended selective randomization rule
// with protected prefix k and degree of randomization r.
func Selective(k int, r float64) (Policy, error) {
	if err := validateKR(RuleSelective, k, r); err != nil {
		return nil, err
	}
	return selective{k: k, r: r}, nil
}

// epsilonDecay is selective promotion whose degree of randomization
// anneals as awareness grows.
type epsilonDecay struct {
	k        int
	r0, rMin float64
}

func (e epsilonDecay) Spec() Spec {
	return Spec{Rule: RuleEpsilonDecay, K: e.k, R: e.r0, RMin: e.rMin}
}
func (epsilonDecay) Selection() Selection { return SelectUnexplored }

// Params interpolates linearly in the zero-awareness fraction: a corpus
// that is all undiscovered pages explores at the full r0, a fully
// explored one at the rMin floor. With no population signal (Pages <= 0)
// it behaves like plain selective at r0 — over-exploring an unknown
// corpus is the safe direction, and an empty pool makes r moot anyway.
func (e epsilonDecay) Params(st State) (int, float64) {
	if st.Pages <= 0 {
		return e.k, e.r0
	}
	frac := float64(st.ZeroAware) / float64(st.Pages)
	if frac < 0 {
		frac = 0
	} else if frac > 1 {
		frac = 1
	}
	return e.k, e.rMin + (e.r0-e.rMin)*frac
}

// EpsilonDecay returns the annealing variant of the selective rule: pool
// membership is zero-awareness exactly as Selective, but the degree of
// randomization decays from r (everything unexplored) to rMin (everything
// explored) with the corpus's zero-awareness fraction — exploration fades
// as discovery completes, the epsilon-greedy schedule of the bandit
// literature applied to the paper's §4 merge.
func EpsilonDecay(k int, r, rMin float64) (Policy, error) {
	if err := validateKR(RuleEpsilonDecay, k, r); err != nil {
		return nil, err
	}
	if rMin < 0 || rMin > r {
		return nil, fmt.Errorf("policy: epsilon-decay floor rmin must be in [0,r=%g], got %v", r, rMin)
	}
	return epsilonDecay{k: k, r0: r, rMin: rMin}, nil
}

// Package policy holds the repository's ranking rules as one value. The
// paper's contribution is a *comparison* of ranking rules — pure
// deterministic, uniform random, and partially randomized (selective)
// ranking — and every surface that ranks (the offline Ranker, the §6
// community simulator, the §5 analytical model, the figure experiments
// and the online serving path) names its rule as a Spec, validates it
// once and runs the same scratch-reusing, zero-alloc merge,
// Scratch.MergeBounded (bounded.go), which fills the first n positions
// and draws each promoted page lazily; the simulator's visits resolve
// single positions of the same law through the lazy position resolver
// (resolver.go).
//
// A Spec is the §4 policy's three numbers — a pool rule, the protected
// prefix k and the degree of randomization r — plus the epsilon-decay
// floor, and it answers the two questions a request asks of it:
//
//   - Selection: how candidates split into the deterministic list and the
//     promotion pool (never, by an r-biased coin per candidate, or by
//     zero-awareness membership — the paper's none/uniform/selective
//     rules);
//   - Params: the §4 merge parameters (protected prefix k, degree of
//     randomization r) for a request observing the given corpus State —
//     constant for the paper's rules, state-dependent for the
//     epsilon-decay variant that anneals randomization as awareness
//     grows.
package policy

import (
	"fmt"
	"strconv"
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

// Rule names accepted by Spec and ParseSpec.
const (
	RuleDeterministic = "deterministic"
	RuleNone          = "none" // alias of deterministic, the paper's label
	RuleUniform       = "uniform"
	RuleSelective     = "selective"
	RuleEpsilonDecay  = "epsilon-decay"
)

// Spec is one complete rank-promotion policy, in the form flags, JSON
// and on-disk metadata carry. Holders keep the spec itself and call
// Validate once before asking it for Selection and Params.
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

// Validate reports whether the spec names a known rule whose
// parameters are in range: k >= 1 and r a probability for the rules that
// read them, and 0 <= rmin <= r for epsilon-decay. Selection and Params
// answer for validated specs only.
func (s Spec) Validate() error {
	switch s.Rule {
	case RuleDeterministic, RuleNone, "":
		return nil
	case RuleUniform, RuleSelective:
		return validateKR(s.Rule, s.K, s.R)
	case RuleEpsilonDecay:
		if err := validateKR(s.Rule, s.K, s.R); err != nil {
			return err
		}
		// Written so that a NaN floor fails: it compares false both ways.
		if !(s.RMin >= 0 && s.RMin <= s.R) {
			return fmt.Errorf("policy: epsilon-decay floor rmin must be in [0,r=%g], got %v", s.R, s.RMin)
		}
		return nil
	default:
		return fmt.Errorf("policy: unknown rule %q", s.Rule)
	}
}

// Selection reports how the spec decides pool membership.
func (s Spec) Selection() Selection {
	switch s.Rule {
	case RuleUniform:
		return SelectCoin
	case RuleSelective, RuleEpsilonDecay:
		return SelectUnexplored
	default:
		return SelectNone
	}
}

// Params returns the §4 merge parameters — protected prefix k and degree
// of randomization r — for a request observing st. It consumes no
// randomness; the same st always yields the same parameters. The
// deterministic rule answers (1, 0) whatever its K.
//
// Epsilon-decay interpolates linearly in the zero-awareness fraction: a
// corpus that is all undiscovered pages explores at the full R, a fully
// explored one at the RMin floor — exploration fades as discovery
// completes, the epsilon-greedy schedule of the bandit literature applied
// to the paper's §4 merge. With no population signal (Pages <= 0) it
// behaves like plain selective at R: over-exploring an unknown corpus is
// the safe direction, and an empty pool makes r moot anyway.
func (s Spec) Params(st State) (k int, r float64) {
	switch s.Rule {
	case RuleUniform, RuleSelective:
		return s.K, s.R
	case RuleEpsilonDecay:
		if st.Pages <= 0 {
			return s.K, s.R
		}
		frac := float64(st.ZeroAware) / float64(st.Pages)
		if frac < 0 {
			frac = 0
		} else if frac > 1 {
			frac = 1
		}
		return s.K, s.RMin + (s.R-s.RMin)*frac
	default:
		return 1, 0
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
	// strconv, not fmt.Sscanf: Sscanf stops at the first bad character,
	// which would read "1x" as 1.
	var err error
	if len(parts) > 1 {
		if spec.K, err = strconv.Atoi(strings.TrimSpace(parts[1])); err != nil {
			return bad(fmt.Errorf("k %q: %v", parts[1], err))
		}
	}
	if len(parts) > 2 {
		if spec.R, err = strconv.ParseFloat(strings.TrimSpace(parts[2]), 64); err != nil {
			return bad(fmt.Errorf("r %q: %v", parts[2], err))
		}
	}
	if len(parts) > 3 {
		if spec.Rule != RuleEpsilonDecay {
			return bad(fmt.Errorf("rule %q takes at most rule:k:r", spec.Rule))
		}
		if spec.RMin, err = strconv.ParseFloat(strings.TrimSpace(parts[3]), 64); err != nil {
			return bad(fmt.Errorf("rmin %q: %v", parts[3], err))
		}
	}
	if len(parts) > 4 {
		return bad(fmt.Errorf("too many fields"))
	}
	if err = spec.Validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

// validateKR is the shared parameter check of the rules that read k and r.
func validateKR(rule string, k int, r float64) error {
	if k < 1 {
		return fmt.Errorf("policy: %s starting point k must be >= 1, got %d", rule, k)
	}
	// Written so that a NaN r fails: it compares false both ways.
	if !(r >= 0 && r <= 1) {
		return fmt.Errorf("policy: %s degree of randomization r must be in [0,1], got %v", rule, r)
	}
	return nil
}

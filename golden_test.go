package shuffledeck

import (
	"reflect"
	"testing"

	"repro/internal/policy"
)

// goldenPages is the fixed candidate set of the golden determinism tests:
// 24 pages with mixed popularity (including ties), mixed ages, and a
// third unexplored.
func goldenPages() []PageStat {
	var ps []PageStat
	for i := 0; i < 24; i++ {
		p := PageStat{ID: i, Popularity: float64((i * 7) % 12), Age: i % 5}
		if i%3 == 0 {
			p.Popularity = 0
			p.Unexplored = true
		}
		ps = append(ps, p)
	}
	return ps
}

// goldenPolicies maps the golden table's policy names to their specs.
var goldenPolicies = map[string]Policy{
	"selective_k1_r03": {Rule: RuleSelective, K: 1, R: 0.3},
	"selective_k2_r01": {Rule: RuleSelective, K: 2, R: 0.1},
	"uniform_k1_r03":   {Rule: RuleUniform, K: 1, R: 0.3},
	"none":             {Rule: RuleNone, K: 1},
}

// rankerGoldens are Ranker.Rank outputs recorded from the pre-refactor
// implementation (before the merge engine moved to internal/policy) at
// fixed seeds. Three consecutive calls per ranker pin the whole RNG
// stream, not just the first draw. Any change to the draw sequence — an
// extra Bernoulli, a reordered shuffle — breaks these rows.
var rankerGoldens = []struct {
	policy string
	seed   uint64
	call   int
	want   []int
}{
	{"selective_k1_r03", 1, 0, []int{17, 5, 22, 10, 8, 20, 13, 1, 23, 6, 11, 15, 9, 4, 16, 14, 2, 19, 18, 7, 3, 0, 12, 21}},
	{"selective_k1_r03", 1, 1, []int{17, 18, 6, 5, 22, 10, 3, 12, 8, 20, 13, 1, 23, 11, 4, 16, 9, 14, 2, 19, 7, 15, 21, 0}},
	{"selective_k1_r03", 1, 2, []int{17, 5, 22, 10, 8, 20, 13, 1, 9, 23, 11, 0, 21, 4, 12, 16, 14, 2, 19, 7, 18, 15, 6, 3}},
	{"selective_k1_r03", 2, 0, []int{6, 17, 5, 22, 10, 8, 20, 13, 0, 1, 23, 11, 4, 15, 16, 18, 14, 2, 19, 12, 3, 7, 21, 9}},
	{"selective_k1_r03", 2, 1, []int{0, 17, 5, 15, 22, 10, 9, 8, 20, 13, 1, 23, 3, 11, 6, 4, 18, 16, 12, 21, 14, 2, 19, 7}},
	{"selective_k1_r03", 2, 2, []int{17, 5, 22, 10, 9, 8, 15, 20, 18, 13, 1, 23, 11, 4, 16, 14, 21, 2, 3, 19, 7, 0, 6, 12}},
	{"selective_k2_r01", 1, 0, []int{17, 5, 22, 10, 8, 20, 13, 1, 23, 11, 6, 4, 15, 9, 16, 14, 2, 19, 7, 18, 3, 0, 12, 21}},
	{"selective_k2_r01", 1, 1, []int{17, 5, 22, 10, 8, 20, 13, 1, 23, 0, 15, 11, 4, 16, 14, 2, 19, 7, 9, 6, 12, 21, 18, 3}},
	{"selective_k2_r01", 1, 2, []int{17, 5, 22, 10, 8, 20, 13, 1, 23, 11, 4, 16, 14, 2, 19, 7, 0, 9, 18, 21, 6, 15, 3, 12}},
	{"selective_k2_r01", 2, 0, []int{17, 5, 22, 10, 8, 20, 13, 1, 23, 11, 4, 16, 14, 2, 6, 19, 7, 0, 15, 18, 12, 3, 21, 9}},
	{"selective_k2_r01", 2, 1, []int{17, 5, 22, 10, 8, 15, 20, 18, 13, 1, 23, 11, 4, 16, 14, 2, 19, 7, 3, 0, 9, 12, 6, 21}},
	{"selective_k2_r01", 2, 2, []int{17, 5, 22, 10, 8, 20, 13, 1, 23, 11, 4, 16, 14, 2, 19, 7, 0, 15, 6, 18, 9, 21, 3, 12}},
	{"uniform_k1_r03", 1, 0, []int{17, 5, 18, 22, 10, 8, 1, 12, 13, 23, 11, 4, 20, 9, 16, 14, 2, 19, 7, 3, 6, 21, 0, 15}},
	{"uniform_k1_r03", 1, 1, []int{17, 5, 23, 22, 10, 7, 2, 8, 20, 13, 1, 11, 4, 16, 14, 19, 9, 3, 18, 12, 6, 21, 0, 15}},
	{"uniform_k1_r03", 1, 2, []int{5, 1, 17, 22, 10, 8, 20, 13, 23, 11, 4, 16, 14, 2, 19, 7, 9, 3, 18, 12, 6, 21, 0, 15}},
	{"uniform_k1_r03", 2, 0, []int{5, 10, 8, 13, 6, 23, 20, 11, 4, 22, 16, 14, 0, 2, 19, 9, 3, 18, 17, 12, 1, 21, 7, 15}},
	{"uniform_k1_r03", 2, 1, []int{17, 10, 8, 20, 23, 22, 11, 4, 13, 16, 14, 9, 2, 7, 3, 12, 6, 21, 0, 15, 1, 5, 18, 19}},
	{"uniform_k1_r03", 2, 2, []int{22, 21, 17, 20, 5, 10, 8, 1, 23, 14, 11, 4, 2, 19, 7, 9, 13, 16, 3, 18, 12, 6, 0, 15}},
	{"none", 1, 0, []int{17, 5, 22, 10, 8, 20, 13, 1, 23, 11, 4, 16, 14, 2, 19, 7, 9, 3, 18, 12, 6, 21, 0, 15}},
	{"none", 1, 1, []int{17, 5, 22, 10, 8, 20, 13, 1, 23, 11, 4, 16, 14, 2, 19, 7, 9, 3, 18, 12, 6, 21, 0, 15}},
	{"none", 1, 2, []int{17, 5, 22, 10, 8, 20, 13, 1, 23, 11, 4, 16, 14, 2, 19, 7, 9, 3, 18, 12, 6, 21, 0, 15}},
	{"none", 2, 0, []int{17, 5, 22, 10, 8, 20, 13, 1, 23, 11, 4, 16, 14, 2, 19, 7, 9, 3, 18, 12, 6, 21, 0, 15}},
	{"none", 2, 1, []int{17, 5, 22, 10, 8, 20, 13, 1, 23, 11, 4, 16, 14, 2, 19, 7, 9, 3, 18, 12, 6, 21, 0, 15}},
	{"none", 2, 2, []int{17, 5, 22, 10, 8, 20, 13, 1, 23, 11, 4, 16, 14, 2, 19, 7, 9, 3, 18, 12, 6, 21, 0, 15}},
}

// TestRankerGoldenDeterminism asserts that the policy-engine Ranker
// reproduces the pre-refactor Ranker.Rank outputs byte-for-byte at fixed
// seeds: the refactor moved the merge into internal/policy without
// perturbing a single RNG draw.
func TestRankerGoldenDeterminism(t *testing.T) {
	pages := goldenPages()
	rankers := map[string]map[uint64]*Ranker{}
	for _, g := range rankerGoldens {
		byseed, ok := rankers[g.policy]
		if !ok {
			byseed = map[uint64]*Ranker{}
			rankers[g.policy] = byseed
		}
		r, ok := byseed[g.seed]
		if !ok {
			pol, found := goldenPolicies[g.policy]
			if !found {
				t.Fatalf("unknown golden policy %q", g.policy)
			}
			var err error
			r, err = NewRanker(pol, g.seed)
			if err != nil {
				t.Fatal(err)
			}
			byseed[g.seed] = r
		}
		got := r.Rank(pages)
		if !reflect.DeepEqual(got, g.want) {
			t.Errorf("%s seed %d call %d:\n got %v\nwant %v", g.policy, g.seed, g.call, got, g.want)
		}
	}
}

// TestRankerPolicyMatchesStructForm: the spellings of the promotion-free
// rule — "none", "deterministic" and the empty rule, with and without a
// k, which the rule never reads — build rankers that draw the same stream
// as the golden table's none policy.
func TestRankerPolicyMatchesStructForm(t *testing.T) {
	pages := goldenPages()
	for _, rule := range []string{RuleNone, policy.RuleDeterministic, ""} {
		for _, k := range []int{0, 1, 3} {
			spec := Policy{Rule: rule, K: k}
			a, err := NewRanker(goldenPolicies["none"], 7)
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewRanker(spec, 7)
			if err != nil {
				t.Fatalf("%+v: %v", spec, err)
			}
			for call := 0; call < 4; call++ {
				if got, want := b.Rank(pages), a.Rank(pages); !reflect.DeepEqual(got, want) {
					t.Fatalf("%+v call %d: diverged from none:\n got %v\nwant %v", spec, call, got, want)
				}
			}
		}
	}
}

// TestRankerEpsilonDecayAnneals: the epsilon-decay variant behaves as
// selective at full r while everything is unexplored and converges on the
// deterministic order once nothing is.
func TestRankerEpsilonDecayAnneals(t *testing.T) {
	r, err := NewRanker(Policy{Rule: policy.RuleEpsilonDecay, K: 1, R: 0.5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Fully explored population: r anneals to the 0 floor, so the output
	// must equal the deterministic order every time.
	explored := goldenPages()
	for i := range explored {
		explored[i].Unexplored = false
		explored[i].Popularity = float64(len(explored) - i)
	}
	det, err := NewRanker(Policy{Rule: RuleNone, K: 1}, 99)
	if err != nil {
		t.Fatal(err)
	}
	want := det.Rank(explored)
	for call := 0; call < 5; call++ {
		if got := r.Rank(explored); !reflect.DeepEqual(got, want) {
			t.Fatalf("fully-explored epsilon-decay perturbed the ranking: %v != %v", got, want)
		}
	}
	// Fully unexplored population at r=0.5: the pool is everything, so
	// promoted pages must appear off the deterministic (empty) order —
	// i.e. the rankings across calls must not all be identical.
	unexplored := goldenPages()
	for i := range unexplored {
		unexplored[i].Unexplored = true
		unexplored[i].Popularity = 0
	}
	first := append([]int(nil), r.Rank(unexplored)...)
	varies := false
	for call := 0; call < 5 && !varies; call++ {
		varies = !reflect.DeepEqual(r.Rank(unexplored), first)
	}
	if !varies {
		t.Fatal("fully-unexplored epsilon-decay never randomized the ranking")
	}
}

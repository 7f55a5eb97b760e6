package shuffledeck

import (
	"math"
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

// rankerGoldens are Ranker.Rank outputs at fixed seeds, recorded when
// the Ranker moved onto policy.Scratch.MergeBounded (the merge the
// online service runs) once TestRankerPromotedShareMatchesResolver and
// the policy package's law tests passed on it; the none rows predate
// that move and did not change. Three consecutive calls per ranker pin
// the whole RNG stream, not just the first draw. Any change to the draw
// sequence — an extra Bernoulli, a reordered pool draw — breaks these
// rows.
var rankerGoldens = []struct {
	policy string
	seed   uint64
	call   int
	want   []int
}{
	{"selective_k1_r03", 1, 0, []int{17, 5, 22, 10, 8, 9, 20, 13, 1, 23, 11, 4, 16, 14, 2, 6, 18, 19, 7, 0, 21, 12, 3, 15}},
	{"selective_k1_r03", 1, 1, []int{17, 5, 22, 15, 10, 8, 20, 18, 13, 1, 23, 3, 11, 4, 16, 14, 2, 19, 7, 21, 6, 0, 9, 12}},
	{"selective_k1_r03", 1, 2, []int{17, 21, 6, 5, 22, 10, 8, 20, 13, 1, 23, 11, 4, 16, 9, 14, 12, 2, 15, 19, 7, 0, 3, 18}},
	{"selective_k1_r03", 2, 0, []int{21, 0, 17, 9, 3, 5, 22, 10, 8, 20, 13, 12, 1, 23, 11, 6, 15, 4, 16, 18, 14, 2, 19, 7}},
	{"selective_k1_r03", 2, 1, []int{17, 5, 22, 10, 8, 20, 18, 21, 13, 0, 1, 9, 23, 11, 4, 16, 15, 12, 3, 6, 14, 2, 19, 7}},
	{"selective_k1_r03", 2, 2, []int{17, 5, 22, 18, 10, 8, 20, 13, 1, 23, 15, 6, 9, 11, 4, 16, 14, 2, 19, 3, 0, 7, 12, 21}},
	{"selective_k2_r01", 1, 0, []int{17, 5, 22, 10, 8, 20, 13, 12, 1, 23, 11, 4, 16, 14, 2, 19, 6, 18, 7, 21, 0, 3, 9, 15}},
	{"selective_k2_r01", 1, 1, []int{17, 5, 22, 10, 8, 15, 20, 13, 1, 23, 11, 4, 16, 14, 3, 2, 19, 7, 6, 21, 0, 9, 18, 12}},
	{"selective_k2_r01", 1, 2, []int{17, 5, 22, 10, 8, 20, 13, 1, 23, 11, 4, 16, 14, 2, 19, 7, 6, 0, 21, 15, 9, 3, 18, 12}},
	{"selective_k2_r01", 2, 0, []int{17, 5, 22, 10, 8, 20, 13, 1, 23, 11, 4, 16, 14, 2, 19, 7, 9, 21, 0, 6, 3, 12, 18, 15}},
	{"selective_k2_r01", 2, 1, []int{17, 5, 22, 10, 8, 20, 13, 1, 23, 11, 4, 16, 18, 21, 14, 2, 19, 7, 12, 0, 15, 6, 3, 9}},
	{"selective_k2_r01", 2, 2, []int{17, 5, 22, 10, 8, 20, 13, 1, 23, 11, 4, 16, 14, 2, 19, 7, 12, 0, 21, 15, 6, 9, 3, 18}},
	{"uniform_k1_r03", 1, 0, []int{17, 13, 5, 22, 10, 12, 8, 1, 23, 9, 11, 4, 16, 18, 14, 2, 19, 7, 3, 6, 21, 0, 20, 15}},
	{"uniform_k1_r03", 1, 1, []int{0, 17, 5, 22, 8, 10, 13, 1, 23, 11, 4, 16, 14, 2, 19, 7, 9, 3, 12, 6, 15, 21, 18, 20}},
	{"uniform_k1_r03", 1, 2, []int{22, 2, 5, 20, 10, 11, 4, 8, 16, 14, 19, 6, 7, 9, 18, 21, 0, 23, 12, 13, 1, 15, 3, 17}},
	{"uniform_k1_r03", 2, 0, []int{5, 10, 22, 8, 13, 23, 11, 4, 16, 1, 6, 14, 0, 2, 20, 19, 9, 3, 18, 17, 7, 12, 21, 15}},
	{"uniform_k1_r03", 2, 1, []int{5, 8, 20, 3, 1, 13, 11, 4, 16, 14, 17, 2, 12, 19, 22, 9, 18, 6, 21, 0, 15, 23, 7, 10}},
	{"uniform_k1_r03", 2, 2, []int{5, 22, 13, 1, 10, 23, 4, 16, 14, 11, 12, 2, 19, 7, 9, 3, 8, 18, 6, 20, 21, 0, 17, 15}},
	{"none", 1, 0, []int{17, 5, 22, 10, 8, 20, 13, 1, 23, 11, 4, 16, 14, 2, 19, 7, 9, 3, 18, 12, 6, 21, 0, 15}},
	{"none", 1, 1, []int{17, 5, 22, 10, 8, 20, 13, 1, 23, 11, 4, 16, 14, 2, 19, 7, 9, 3, 18, 12, 6, 21, 0, 15}},
	{"none", 1, 2, []int{17, 5, 22, 10, 8, 20, 13, 1, 23, 11, 4, 16, 14, 2, 19, 7, 9, 3, 18, 12, 6, 21, 0, 15}},
	{"none", 2, 0, []int{17, 5, 22, 10, 8, 20, 13, 1, 23, 11, 4, 16, 14, 2, 19, 7, 9, 3, 18, 12, 6, 21, 0, 15}},
	{"none", 2, 1, []int{17, 5, 22, 10, 8, 20, 13, 1, 23, 11, 4, 16, 14, 2, 19, 7, 9, 3, 18, 12, 6, 21, 0, 15}},
	{"none", 2, 2, []int{17, 5, 22, 10, 8, 20, 13, 1, 23, 11, 4, 16, 14, 2, 19, 7, 9, 3, 18, 12, 6, 21, 0, 15}},
}

// TestRankerGoldenDeterminism asserts that the Ranker reproduces the
// recorded Ranker.Rank outputs byte-for-byte at fixed seeds.
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

// TestRankerPromotedShareMatchesResolver checks the Ranker against the
// closed form rather than a recorded draw order: on goldenPages (16
// explored pages, 8 unexplored), the share of Rank calls that put an
// unexplored page at each position must match
// policy.Resolver.PromotedProbability by a two-sided binomial test at
// the 99.9% level, and the protected positions 1..k−1 must never hold
// one.
func TestRankerPromotedShareMatchesResolver(t *testing.T) {
	const calls = 20000
	const z999 = 3.2905 // two-sided 99.9% standard normal quantile
	pages := goldenPages()
	unexplored := map[int]bool{}
	for _, p := range pages {
		if p.Unexplored {
			unexplored[p.ID] = true
		}
	}
	nPool := len(unexplored)
	for _, name := range []string{"selective_k1_r03", "selective_k2_r01"} {
		pol := goldenPolicies[name]
		r, err := NewRanker(pol, 11)
		if err != nil {
			t.Fatal(err)
		}
		res, err := policy.NewResolver(make(policy.Slice, len(pages)-nPool), make(policy.Slice, nPool), pol.K, pol.R)
		if err != nil {
			t.Fatal(err)
		}
		promoted := make([]int, len(pages))
		for c := 0; c < calls; c++ {
			for i, id := range r.Rank(pages) {
				if unexplored[id] {
					promoted[i]++
				}
			}
		}
		for i, x := range promoted {
			pos := i + 1
			if pos < pol.K && x != 0 {
				t.Errorf("%s: protected position %d held an unexplored page %d times", name, pos, x)
			}
			p := res.PromotedProbability(pos)
			mean := calls * p
			if p == 0 || p == 1 {
				if float64(x) != mean {
					t.Errorf("%s position %d: %d promoted of %d, want exactly %.0f", name, pos, x, calls, mean)
				}
				continue
			}
			if z := (float64(x) - mean) / math.Sqrt(mean*(1-p)); math.Abs(z) > z999 {
				t.Errorf("%s position %d: promoted share %.4f, closed form %.4f (z = %.2f)",
					name, pos, float64(x)/calls, p, z)
			}
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

package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/policy"
)

// twoArmConfig declares the acceptance experiment: a deterministic
// control against the paper's selective treatment, split evenly.
func twoArmConfig() []Arm {
	return []Arm{
		{Name: "control", Policy: policy.Spec{Rule: policy.RuleDeterministic}, Weight: 1},
		{Name: "treatment", Policy: policy.Spec{Rule: policy.RuleSelective, K: 1, R: 0.3}, Weight: 1},
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		wantErr string // substring; empty = valid
	}{
		{"zero value selects defaults", Config{}, ""},
		{"negative shards", Config{Shards: -1}, "Shards"},
		{"negative topk", Config{TopK: -8}, "TopK"},
		{"negative queuelen", Config{QueueLen: -1}, "QueueLen"},
		{"bad policy k", Config{Policy: selectiveSpec(0, 0.1)}, "k must be"},
		{"bad policy r", Config{Policy: selectiveSpec(1, 1.5)}, "r must be"},
		// A NaN r compares false against both bounds; admitted, it
		// would promote every browse slot past k.
		{"NaN policy r", Config{Policy: selectiveSpec(1, math.NaN())}, "r must be"},
		{"NaN arm policy r", Config{Arms: []Arm{
			{Name: "a", Policy: policy.Spec{Rule: policy.RuleUniform, K: 1, R: math.NaN()}, Weight: 1},
		}}, "r must be"},
		{"unnamed arm", Config{Arms: []Arm{{Policy: policy.Spec{Rule: policy.RuleSelective, K: 1, R: 0.1}, Weight: 1}}}, "no name"},
		{"duplicate arm names", Config{Arms: []Arm{
			{Name: "a", Policy: policy.Spec{Rule: policy.RuleDeterministic}, Weight: 1},
			{Name: "a", Policy: policy.Spec{Rule: policy.RuleSelective, K: 1, R: 0.1}, Weight: 1},
		}}, "duplicate"},
		{"negative arm weight", Config{Arms: []Arm{
			{Name: "a", Policy: policy.Spec{Rule: policy.RuleDeterministic}, Weight: -0.5},
		}}, "weight"},
		{"NaN arm weight", Config{Arms: []Arm{
			{Name: "a", Policy: policy.Spec{Rule: policy.RuleDeterministic}, Weight: math.NaN()},
			{Name: "b", Policy: policy.Spec{Rule: policy.RuleSelective, K: 1, R: 0.1}, Weight: math.NaN()},
		}}, "non-finite"},
		{"Inf arm weight", Config{Arms: []Arm{
			{Name: "a", Policy: policy.Spec{Rule: policy.RuleDeterministic}, Weight: math.Inf(1)},
		}}, "non-finite"},
		{"weights sum to zero", Config{Arms: []Arm{
			{Name: "a", Policy: policy.Spec{Rule: policy.RuleDeterministic}, Weight: 0},
			{Name: "b", Policy: policy.Spec{Rule: policy.RuleSelective, K: 1, R: 0.1}, Weight: 0},
		}}, "sum to 0"},
		{"bad arm policy spec", Config{Arms: []Arm{
			{Name: "a", Policy: policy.Spec{Rule: "mystery"}, Weight: 1},
		}}, "unknown rule"},
		{"bad epsilon-decay floor", Config{Arms: []Arm{
			{Name: "a", Policy: policy.Spec{Rule: policy.RuleEpsilonDecay, K: 1, R: 0.1, RMin: 0.5}, Weight: 1},
		}}, "rmin"},
		{"two valid arms", Config{Arms: twoArmConfig()}, ""},
		// Arms take precedence: a garbage Policy must not reject a config
		// whose declared arms are valid, because the Policy is ignored.
		{"arms override invalid policy", Config{Arms: twoArmConfig(), Policy: selectiveSpec(0, 9)}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewCorpus(tc.cfg)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("NewCorpus: unexpected error %v", err)
				}
				c.Close()
				return
			}
			if err == nil {
				c.Close()
				t.Fatalf("NewCorpus accepted invalid config %+v", tc.cfg)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// selectiveSpec builds a selective policy spec with the given k and r
// (the validation targets the parameter range).
func selectiveSpec(k int, r float64) policy.Spec {
	return policy.Spec{Rule: policy.RuleSelective, K: k, R: r}
}

// TestStableUnitBucketing: the same unit always lands on the same arm,
// assignment is deterministic across corpora, and both arms receive
// traffic under many distinct units in roughly their weight share.
func TestStableUnitBucketing(t *testing.T) {
	build := func() *Corpus {
		c := newTestCorpus(t, Config{Shards: 2, Seed: 11, Arms: twoArmConfig()})
		seedCorpus(t, c, 10, 700)
		return c
	}
	a, b := build(), build()
	counts := map[string]int{}
	for i := 0; i < 400; i++ {
		unit := fmt.Sprintf("user-%d", i)
		_, arm1, err := a.RankUnit(unit, "", 5)
		if err != nil {
			t.Fatal(err)
		}
		_, arm2, err := b.RankUnit(unit, "", 5)
		if err != nil {
			t.Fatal(err)
		}
		if arm1 != arm2 {
			t.Fatalf("unit %q bucketed to %q and %q across identical corpora", unit, arm1, arm2)
		}
		// Re-requesting with the same unit must not move it.
		_, again, _ := a.RankUnit(unit, "other query terms", 5)
		if again != arm1 {
			t.Fatalf("unit %q moved from %q to %q between requests", unit, arm1, again)
		}
		counts[arm1]++
	}
	for _, name := range []string{"control", "treatment"} {
		got := counts[name]
		// 50% split over 400 units (x2 requests counted once each): a
		// 30–70% band is ~8 sigma.
		if got < 120 || got > 280 {
			t.Fatalf("arm %q received %d/400 units under equal weights: %v", name, got, counts)
		}
	}
}

// TestArmWeightsRespected: a 3:1 weight split shows up in unit
// bucketing proportions.
func TestArmWeightsRespected(t *testing.T) {
	arms := twoArmConfig()
	arms[0].Weight = 3
	c := newTestCorpus(t, Config{Shards: 1, Seed: 2, Arms: arms})
	seedCorpus(t, c, 5, 600)
	control := 0
	const units = 1000
	for i := 0; i < units; i++ {
		_, arm, err := c.RankUnit(fmt.Sprintf("u%d", i), "", 3)
		if err != nil {
			t.Fatal(err)
		}
		if arm == "control" {
			control++
		}
	}
	// Expect 750; allow ±10% absolute (7+ sigma).
	if control < 650 || control > 850 {
		t.Fatalf("control served %d/%d units at weight 3:1, want ~750", control, units)
	}
}

// TestForcedArmAndPolicyDifference: forcing each arm works, and the
// treatment arm (selective) can surface the zero-awareness gem while the
// control arm (deterministic) never does.
func TestForcedArmAndPolicyDifference(t *testing.T) {
	c := newTestCorpus(t, Config{Shards: 2, Seed: 4, Arms: twoArmConfig()})
	seedCorpus(t, c, 10, 800)
	sawGem := false
	for seed := uint64(1); seed <= 40; seed++ {
		res, arm, err := c.rankForcedSeeded("control", "", 10, seed)
		if err != nil {
			t.Fatal(err)
		}
		if arm != "control" {
			t.Fatalf("forced control served by %q", arm)
		}
		for _, r := range res {
			if r.ID == 800 || r.Promoted {
				t.Fatalf("deterministic control served promoted slot %+v", r)
			}
		}
		res, arm, err = c.rankForcedSeeded("treatment", "", 10, seed)
		if err != nil {
			t.Fatal(err)
		}
		if arm != "treatment" {
			t.Fatalf("forced treatment served by %q", arm)
		}
		for _, r := range res {
			if r.ID == 800 {
				if !r.Promoted {
					t.Fatalf("gem slot not tagged promoted: %+v", r)
				}
				sawGem = true
			}
		}
	}
	if !sawGem {
		t.Fatal("selective treatment never promoted the zero-awareness gem over 40 seeds")
	}
}

// rankForcedSeeded is a test helper around the forced-arm entry.
func (c *Corpus) rankForcedSeeded(arm, query string, n int, seed uint64) ([]Result, string, error) {
	a, ok := c.armByName(arm)
	if !ok {
		return nil, "", fmt.Errorf("unknown arm %q", arm)
	}
	res, name := c.rankInto(query, n, &seed, "", a, nil)
	return res, name, nil
}

// TestPerArmTelemetryAndDiscoveries: feedback attributed to an arm
// credits that arm's impressions/clicks; a first click on a
// zero-awareness page counts a discovery with a measurable
// time-to-first-click for the clicking arm only.
func TestPerArmTelemetryAndDiscoveries(t *testing.T) {
	c := newTestCorpus(t, Config{Shards: 2, Seed: 9, Arms: twoArmConfig()})
	seedCorpus(t, c, 6, 900)

	c.Feedback([]Event{
		{Page: 0, Slot: 1, Impressions: 4, Arm: "control"},
		{Page: 900, Slot: 5, Impressions: 1, Arm: "treatment"}, // gem first shown
		{Page: 1, Slot: 2, Impressions: 2, Clicks: 1, Arm: "control"},
	})
	c.Sync()
	c.Feedback([]Event{
		{Page: 900, Slot: 4, Impressions: 1, Clicks: 1, Arm: "treatment"}, // discovery
		{Page: 2, Slot: 1, Impressions: 1, Clicks: 1, Arm: "ghost-arm"},   // unknown arm
		{Page: 3, Slot: 1, Impressions: 1, Clicks: 1},                     // unattributed
	})
	c.Sync()

	reports := map[string]ArmReport{}
	for _, r := range c.Arms() {
		reports[r.Name] = r
	}
	ctrl, treat := reports["control"], reports["treatment"]
	if ctrl.Impressions != 6 || ctrl.Clicks != 1 || ctrl.Discoveries != 0 {
		t.Fatalf("control report = %+v, want 6 impressions / 1 click / 0 discoveries", ctrl)
	}
	if treat.Impressions != 2 || treat.Clicks != 1 || treat.Discoveries != 1 {
		t.Fatalf("treatment report = %+v, want 2 impressions / 1 click / 1 discovery", treat)
	}
	if treat.MeanTTFCMillis < 0 {
		t.Fatalf("negative time-to-first-click %v", treat.MeanTTFCMillis)
	}
	// Unknown/empty arms still applied in full to the corpus counters.
	st := c.Stats()
	if st.ClicksApplied != 4 || st.Dropped != 0 {
		t.Fatalf("corpus stats = %+v, want 4 clicks applied and nothing dropped", st)
	}
	if gem, _ := c.Page(900); !gem.Aware {
		t.Fatal("gem not promoted by attributed click")
	}
	if len(st.Arms) != 2 {
		t.Fatalf("Stats carries %d arm reports, want 2", len(st.Arms))
	}
}

// TestPerArmQueryCacheIsolation: the hot-query cache memoizes per arm —
// serving the same query under two arms with different policies must not
// leak one arm's deterministic assembly to the other.
func TestPerArmQueryCacheIsolation(t *testing.T) {
	c := newTestCorpus(t, Config{Shards: 2, Seed: 21, Arms: twoArmConfig()})
	seedCorpus(t, c, 12, 750)

	// Warm the cache under the control (deterministic) arm, then serve
	// the same query under the treatment arm: the treatment must still
	// see its promotion pool (its own assembly), not control's.
	if _, _, err := c.rankForcedSeeded("control", "testing topic", 13, 1); err != nil {
		t.Fatal(err)
	}
	sawPromoted := false
	for seed := uint64(1); seed <= 30 && !sawPromoted; seed++ {
		res, _, err := c.rankForcedSeeded("treatment", "testing topic", 13, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			if r.ID == 750 && r.Promoted {
				sawPromoted = true
			}
		}
	}
	if !sawPromoted {
		t.Fatal("treatment arm never promoted the gem after control warmed the cache: cache entries leaked across arms")
	}
	// Both arms hot: repeat requests must hit.
	st0 := c.Stats()
	if _, _, err := c.rankForcedSeeded("control", "testing topic", 13, 99); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.rankForcedSeeded("treatment", "testing topic", 13, 99); err != nil {
		t.Fatal(err)
	}
	st1 := c.Stats()
	if got := st1.QueryCacheHits - st0.QueryCacheHits; got != 2 {
		t.Fatalf("hot per-arm requests produced %d cache hits, want 2", got)
	}
}

// TestRankHandlerArms: the HTTP layer round-trips unit bucketing, the
// arm echo, forced arms, unknown-arm rejection and /experiment.
func TestRankHandlerArms(t *testing.T) {
	c := newTestCorpus(t, Config{Shards: 2, Seed: 6, Arms: twoArmConfig()})
	seedCorpus(t, c, 8, 650)
	srv := NewServer(c)

	w := postJSON(t, srv, "/v1/rank", RankRequest{N: 5, Unit: "alice"})
	if w.Code != http.StatusOK {
		t.Fatalf("/rank status %d: %s", w.Code, w.Body)
	}
	var resp RankResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Arm != "control" && resp.Arm != "treatment" {
		t.Fatalf("response arm %q not a declared arm", resp.Arm)
	}
	// Same unit → same arm, over the wire.
	for i := 0; i < 5; i++ {
		w2 := postJSON(t, srv, "/v1/rank", RankRequest{N: 5, Unit: "alice"})
		var r2 RankResponse
		if err := json.Unmarshal(w2.Body.Bytes(), &r2); err != nil {
			t.Fatal(err)
		}
		if r2.Arm != resp.Arm {
			t.Fatalf("unit alice moved arms %q -> %q", resp.Arm, r2.Arm)
		}
	}

	for _, forced := range []string{"treatment", "control"} {
		w = postJSON(t, srv, "/v1/rank", RankRequest{N: 5, Arm: forced})
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Arm != forced {
			t.Fatalf("forced arm %q served %q", forced, resp.Arm)
		}
	}

	if w = postJSON(t, srv, "/v1/rank", RankRequest{N: 5, Arm: "nope"}); w.Code != http.StatusBadRequest {
		t.Fatalf("unknown arm: status %d, want 400", w.Code)
	}

	// Feedback with arm attribution, then /experiment reflects it.
	w = postJSON(t, srv, "/v1/feedback", FeedbackRequest{Events: []Event{
		{Page: 650, Slot: 3, Impressions: 1, Clicks: 1, Arm: "treatment"},
	}})
	if w.Code != http.StatusAccepted {
		t.Fatalf("/feedback status %d: %s", w.Code, w.Body)
	}
	c.Sync()

	req := httptest.NewRequest(http.MethodGet, "/v1/experiment", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/experiment status %d", rec.Code)
	}
	var exp ExperimentResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &exp); err != nil {
		t.Fatal(err)
	}
	if len(exp.Arms) != 2 {
		t.Fatalf("/experiment lists %d arms, want 2", len(exp.Arms))
	}
	byName := map[string]ArmReport{}
	for _, a := range exp.Arms {
		byName[a.Name] = a
	}
	if tr := byName["treatment"]; tr.Discoveries != 1 || tr.Clicks != 1 {
		t.Fatalf("treatment /experiment row = %+v, want 1 discovery, 1 click", tr)
	}
	if tr := byName["treatment"]; tr.Policy != "selective(k=1,r=0.3)" {
		t.Fatalf("treatment policy rendered %q", tr.Policy)
	}
	if ctl := byName["control"]; ctl.Requests == 0 {
		t.Fatalf("control requests not counted: %+v", ctl)
	}

	req = httptest.NewRequest(http.MethodPost, "/v1/experiment", nil)
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /experiment: status %d, want 405", rec.Code)
	}
}

// TestEpsilonDecayArmAnneals: an epsilon-decay arm randomizes while the
// corpus holds zero-awareness pages and goes fully deterministic once
// every page is explored.
func TestEpsilonDecayArmAnneals(t *testing.T) {
	c := newTestCorpus(t, Config{Shards: 1, Seed: 15, Arms: []Arm{{
		Name:   "decay",
		Policy: policy.Spec{Rule: policy.RuleEpsilonDecay, K: 1, R: 0.9, RMin: 0},
		Weight: 1,
	}}})
	// Heavily unexplored corpus: 4 aware, 16 zero-awareness.
	for i := 0; i < 20; i++ {
		pop := 0.0
		if i < 4 {
			pop = float64(20 - i)
		}
		if err := c.Add(i, "decay topic", pop); err != nil {
			t.Fatal(err)
		}
	}
	c.Sync()
	promoted := 0
	for seed := uint64(1); seed <= 20; seed++ {
		res, err := c.RankSeeded("", 10, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			if r.Promoted {
				promoted++
			}
		}
	}
	if promoted == 0 {
		t.Fatal("epsilon-decay arm never promoted while 80% of the corpus was unexplored")
	}
	// Explore everything: one click per zero-awareness page.
	var events []Event
	for i := 4; i < 20; i++ {
		events = append(events, Event{Page: i, Slot: 1, Impressions: 1, Clicks: 1})
	}
	c.Feedback(events)
	c.Sync()
	for seed := uint64(50); seed <= 60; seed++ {
		res, err := c.RankSeeded("", 10, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			if r.Promoted {
				t.Fatalf("fully-explored epsilon-decay corpus still promoted %+v", r)
			}
		}
	}
}

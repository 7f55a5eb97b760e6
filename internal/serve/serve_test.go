package serve

import (
	"math"
	"testing"

	"repro/internal/policy"
)

func newTestCorpus(t *testing.T, cfg Config) *Corpus {
	t.Helper()
	c, err := NewCorpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// seedCorpus adds n established pages (popularity n-i, so page 0 is the
// entrenched top) plus one zero-awareness page with id gemID, all under
// the topic "testing topic".
func seedCorpus(t *testing.T, c *Corpus, n, gemID int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := c.Add(i, "testing topic established", float64(n-i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Add(gemID, "testing topic gem", 0); err != nil {
		t.Fatal(err)
	}
	c.Sync()
}

func TestAddSyncTop(t *testing.T) {
	c := newTestCorpus(t, Config{Shards: 3, Seed: 7})
	seedCorpus(t, c, 20, 999)
	top := c.Top(5)
	if len(top) != 5 {
		t.Fatalf("Top(5) returned %d entries", len(top))
	}
	for i, st := range top {
		if st.ID != i {
			t.Fatalf("Top[%d] = page %d, want %d", i, st.ID, i)
		}
	}
	st := c.Stats()
	if st.Pages != 21 || st.Aware != 20 || st.ZeroAware != 1 {
		t.Fatalf("stats = %+v, want 21 pages / 20 aware / 1 zero-aware", st)
	}
	gem, ok := c.Page(999)
	if !ok || gem.Aware || gem.Popularity != 0 {
		t.Fatalf("gem stat = %+v ok=%v, want zero-awareness page", gem, ok)
	}
}

func TestDuplicateAddRejected(t *testing.T) {
	c := newTestCorpus(t, Config{})
	if err := c.Add(1, "some words", 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(1, "other words", 2); err == nil {
		t.Fatal("duplicate Add accepted")
	}
}

func TestAddValidatesPopularity(t *testing.T) {
	c := newTestCorpus(t, Config{})
	for i, tc := range []struct {
		pop float64
		ok  bool
	}{
		{math.NaN(), false},
		{math.Inf(1), false},
		{math.Inf(-1), false},
		{-1, false},
		{0, true},
		{1e300, true},
	} {
		if err := c.Add(i, "topic page", tc.pop); (err == nil) != tc.ok {
			t.Errorf("Add with popularity %v: err = %v, want accepted = %v", tc.pop, err, tc.ok)
		}
	}
	c.Sync()
	if got := c.Stats().Pages; got != 2 {
		t.Fatalf("%d pages served, want the 2 accepted", got)
	}
}

func TestClickPromotesOutOfZeroAwareness(t *testing.T) {
	c := newTestCorpus(t, Config{Shards: 2, Seed: 3})
	seedCorpus(t, c, 5, 42)
	before := c.Epoch()

	// Impressions alone must not promote.
	c.Feedback([]Event{{Page: 42, Slot: 3, Impressions: 10}})
	c.Sync()
	if st, _ := c.Page(42); st.Aware || st.Impressions != 10 {
		t.Fatalf("impressions changed awareness: %+v", st)
	}
	if got := c.Epoch(); got != before {
		t.Fatalf("impressions-only feedback republished snapshots: epoch %d -> %d", before, got)
	}

	// One click promotes the page into the deterministic ranking.
	c.Feedback([]Event{{Page: 42, Slot: 3, Impressions: 1, Clicks: 1}})
	c.Sync()
	st, _ := c.Page(42)
	if !st.Aware || st.Popularity != 1 || st.Clicks != 1 {
		t.Fatalf("click did not promote: %+v", st)
	}
	if got := c.Epoch(); got <= before {
		t.Fatalf("promotion did not republish a snapshot: epoch still %d", got)
	}
	found := false
	for _, e := range c.Top(10) {
		if e.ID == 42 {
			found = true
		}
	}
	if !found {
		t.Fatal("promoted page missing from deterministic Top")
	}
	cs := c.Stats()
	if cs.ZeroAware != 0 || cs.Aware != 6 {
		t.Fatalf("stats after promotion = %+v", cs)
	}
}

func TestRankBrowseSelective(t *testing.T) {
	c := newTestCorpus(t, Config{Shards: 4, Seed: 5, Policy: policy.Spec{Rule: policy.RuleSelective, K: 2, R: 0.5}})
	seedCorpus(t, c, 30, 500)
	res, err := c.RankSeeded("", 10, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 10 {
		t.Fatalf("got %d results, want 10", len(res))
	}
	// k=2 protects the top slot: it must hold the entrenched page 0.
	if res[0].ID != 0 || res[0].Promoted {
		t.Fatalf("protected slot 1 = %+v, want page 0 unpromoted", res[0])
	}
	// With r=0.5 and one pool page, the gem almost surely appears; its
	// slot must be tagged promoted and carry popularity 0.
	for _, r := range res {
		if r.ID == 500 {
			if !r.Promoted || r.Popularity != 0 {
				t.Fatalf("gem slot = %+v, want promoted with popularity 0", r)
			}
			return
		}
	}
	// Deterministic given the seed; if the gem is not served the merge is
	// broken (p(miss) = 0.5^9 over nine free slots).
	t.Fatal("zero-awareness gem never promoted into 10 slots at r=0.5")
}

func TestRankQueryPath(t *testing.T) {
	c := newTestCorpus(t, Config{Shards: 2, Seed: 9})
	seedCorpus(t, c, 10, 77)
	if err := c.Add(200, "unrelated subject entirely", 50); err != nil {
		t.Fatal(err)
	}
	c.Sync()

	res, err := c.RankSeeded("testing topic", 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 11 {
		t.Fatalf("query matched %d pages, want 11", len(res))
	}
	for _, r := range res {
		if r.ID == 200 {
			t.Fatal("query returned non-matching page 200")
		}
	}

	res, err = c.RankSeeded("unrelated subject", 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].ID != 200 {
		t.Fatalf("narrow query = %+v, want only page 200", res)
	}

	if res, err = c.RankSeeded("nosuchterm", 10, 1); err != nil || len(res) != 0 {
		t.Fatalf("missing term: res=%v err=%v, want empty", res, err)
	}
}

func TestRankRuleNoneIsDeterministic(t *testing.T) {
	c := newTestCorpus(t, Config{Shards: 3, Seed: 2, Policy: policy.Spec{Rule: policy.RuleNone, K: 1}})
	seedCorpus(t, c, 12, 300)
	a, err := c.RankSeeded("", 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.RankSeeded("", 12, 99)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("RuleNone rankings differ at slot %d: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].Promoted {
			t.Fatalf("RuleNone promoted slot %d: %+v", i, a[i])
		}
	}
	for i := 0; i < 12; i++ {
		if a[i].ID != i {
			t.Fatalf("slot %d = page %d, want popularity order", i+1, a[i].ID)
		}
	}
}

func TestUnknownPageFeedbackDropped(t *testing.T) {
	c := newTestCorpus(t, Config{})
	seedCorpus(t, c, 3, 50)
	c.Feedback([]Event{
		{Page: 12345, Slot: 1, Clicks: 5},
		{Page: 0, Slot: 1, Impressions: -1},
		{Page: 1, Slot: 0, Clicks: 1}, // no presented position
	})
	c.Sync()
	st := c.Stats()
	if st.Dropped != 3 {
		t.Fatalf("dropped = %d, want 3", st.Dropped)
	}
	if st.ClicksApplied != 0 {
		t.Fatalf("clicks applied = %d, want 0", st.ClicksApplied)
	}
}

func TestTopKSnapshotBoundsServing(t *testing.T) {
	// TopK=4 per shard, 1 shard: the deterministic list a request can see
	// is the snapshot, so asking for 10 yields only the snapshot's 4.
	c := newTestCorpus(t, Config{Shards: 1, TopK: 4, Policy: policy.Spec{Rule: policy.RuleNone, K: 1}})
	for i := 0; i < 9; i++ {
		if err := c.Add(i, "bounded topic", float64(9-i)); err != nil {
			t.Fatal(err)
		}
	}
	c.Sync()
	res, err := c.RankSeeded("", 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("served %d results from a TopK=4 snapshot, want 4", len(res))
	}
}

package serve

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/policy"
)

// twinCorpora builds two identically seeded corpora, one with the
// hot-query cache enabled and one with it disabled, and loads both with
// the same mixed aware/zero-awareness pages.
func twinCorpora(t *testing.T, pages int, pol policy.Spec) (cached, uncached *Corpus) {
	t.Helper()
	build := func(cache bool) *Corpus {
		c := newTestCorpus(t, Config{
			Shards: 4,
			Seed:   33,
			Policy: pol,
		})
		if !cache {
			c.qcache = nil
		}
		for i := 0; i < pages; i++ {
			pop := float64(pages - i)
			if i%3 == 0 {
				pop = 0 // a third of the corpus starts unexplored
			}
			if err := c.Add(i, fmt.Sprintf("cache topic page%d", i), pop); err != nil {
				t.Fatal(err)
			}
		}
		c.Sync()
		return c
	}
	return build(true), build(false)
}

// TestQueryCacheIdentity is the tentpole's semantics gate: at the same
// RNG seed, the cached query path must produce byte-identical rankings to
// the uncached path — the cache reuses deterministic candidate assembly
// only, never a promotion draw. A third of the pages are zero-awareness
// and r is 0.4, so every ranking draws several promoted pages from the
// pool list: a single skipped or reordered draw would diverge the lists.
func TestQueryCacheIdentity(t *testing.T) {
	pol := policy.Spec{Rule: policy.RuleSelective, K: 2, R: 0.4}
	cached, uncached := twinCorpora(t, 60, pol)

	for seed := uint64(1); seed <= 30; seed++ {
		a, err := cached.RankSeeded("cache topic", 15, seed)
		if err != nil {
			t.Fatal(err)
		}
		b, err := uncached.RankSeeded("cache topic", 15, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: cached %+v != uncached %+v", seed, a, b)
		}
	}
	st := cached.Stats()
	if st.QueryCacheHits == 0 {
		t.Fatalf("cache never hit: %+v", st)
	}
	if un := uncached.Stats(); un.QueryCacheHits != 0 || un.QueryCacheMisses != 0 || un.QueryCacheEntries != 0 {
		t.Fatalf("disabled cache recorded activity: %+v", un)
	}

	// Identical feedback to both; the cache must revalidate against the
	// new corpus epoch, not serve the stale assembly.
	events := []Event{
		{Page: 3, Slot: 1, Impressions: 5, Clicks: 4}, // promote a pool page
		{Page: 1, Slot: 2, Impressions: 5, Clicks: 9}, // reorder the establishment
	}
	cached.Feedback(events)
	uncached.Feedback(events)
	cached.Sync()
	uncached.Sync()
	for seed := uint64(100); seed <= 110; seed++ {
		a, _ := cached.RankSeeded("cache topic", 15, seed)
		b, _ := uncached.RankSeeded("cache topic", 15, seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("post-feedback seed %d: cached %+v != uncached %+v", seed, a, b)
		}
	}
}

// TestQueryCacheIdentityRuleNone covers the promotion-free rule, whose
// entries cache the entire deterministic ranking.
func TestQueryCacheIdentityRuleNone(t *testing.T) {
	cached, uncached := twinCorpora(t, 40, policy.Spec{Rule: policy.RuleNone, K: 1})
	for seed := uint64(1); seed <= 5; seed++ {
		a, _ := cached.RankSeeded("cache topic", 10, seed)
		b, _ := uncached.RankSeeded("cache topic", 10, seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: cached %+v != uncached %+v", seed, a, b)
		}
	}
	if st := cached.Stats(); st.QueryCacheHits == 0 {
		t.Fatalf("rule-none queries never hit the cache: %+v", st)
	}
}

// TestQueryCacheUniformRuleBypassed: the uniform rule draws a coin per
// candidate, so its assembly is inherently per-request; the cache must
// stay out of the way and record no activity.
func TestQueryCacheUniformRuleBypassed(t *testing.T) {
	cached, uncached := twinCorpora(t, 40, policy.Spec{Rule: policy.RuleUniform, K: 1, R: 0.3})
	for seed := uint64(1); seed <= 10; seed++ {
		a, _ := cached.RankSeeded("cache topic", 12, seed)
		b, _ := uncached.RankSeeded("cache topic", 12, seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: uniform-rule results diverged", seed)
		}
	}
	if st := cached.Stats(); st.QueryCacheHits != 0 || st.QueryCacheMisses != 0 || st.QueryCacheEntries != 0 {
		t.Fatalf("uniform rule touched the cache: %+v", st)
	}
}

// TestQueryCacheCoverageGrows: an entry built for a short result list
// must not serve a longer request; asking for more results after a
// cached short request still yields the full deterministic ranking.
func TestQueryCacheCoverageGrows(t *testing.T) {
	cached, uncached := twinCorpora(t, 50, policy.Spec{Rule: policy.RuleSelective, K: 1, R: 0.2})
	if _, err := cached.RankSeeded("cache topic", 3, 1); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{25, 3, 40, 1} {
		a, _ := cached.RankSeeded("cache topic", n, uint64(50+n))
		b, _ := uncached.RankSeeded("cache topic", n, uint64(50+n))
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("n=%d after short cached request: %+v != %+v", n, a, b)
		}
		if len(a) != n {
			t.Fatalf("n=%d served %d results", n, len(a))
		}
	}
}

// TestQueryCacheNormalization: queries differing only in case, separators
// or spacing share one cache entry and one candidate assembly.
func TestQueryCacheNormalization(t *testing.T) {
	cached, _ := twinCorpora(t, 30, policy.Spec{Rule: policy.RuleSelective, K: 1, R: 0.2})
	variants := []string{"cache topic", "  Cache   TOPIC!!", "cache-topic", "CACHE topic"}
	var want []Result
	for i, q := range variants {
		got, err := cached.RankSeeded(q, 10, 77)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Fatalf("variant %q ranked differently: %+v != %+v", q, got, want)
		}
	}
	st := cached.Stats()
	if st.QueryCacheEntries != 1 {
		t.Fatalf("variants occupy %d cache entries, want 1", st.QueryCacheEntries)
	}
	if st.QueryCacheMisses != 1 || st.QueryCacheHits != uint64(len(variants)-1) {
		t.Fatalf("hits/misses = %d/%d, want %d/1", st.QueryCacheHits, st.QueryCacheMisses, len(variants)-1)
	}
}

// TestQueryCacheEviction keeps the cache bounded under many distinct
// queries.
func TestQueryCacheEviction(t *testing.T) {
	c := newTestCorpus(t, Config{Shards: 1, Seed: 5})
	c.qcache = newQueryCache(4)
	for i := 0; i < 20; i++ {
		if err := c.Add(i, fmt.Sprintf("evict shared term%d", i), float64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	c.Sync()
	for i := 0; i < 20; i++ {
		if _, err := c.Rank(fmt.Sprintf("evict term%d", i), 5); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.QueryCacheEntries > 4 {
		t.Fatalf("cache grew to %d entries, cap 4", st.QueryCacheEntries)
	}
}

package serve

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/policy"
)

// twinCorpora builds two identically seeded corpora, one with the
// hot-query cache enabled and one with it disabled, and loads both with
// the same mixed aware/zero-awareness pages. Every page also carries
// one of eight group terms g0..g7, so "cache gK" and the like give many
// distinct queries that each match several pages.
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
			if err := c.Add(i, fmt.Sprintf("cache topic page%d g%d", i, i%8), pop); err != nil {
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

// evictCorpus is a one-shard corpus of 64 pages "evict shared termI"
// behind a query cache of cap entries; the query "evict termI" matches
// page I alone, so each I is a distinct key.
func evictCorpus(t *testing.T, cap int) *Corpus {
	t.Helper()
	c := newTestCorpus(t, Config{Shards: 1, Seed: 5})
	c.qcache = newQueryCache(cap)
	for i := 0; i < 64; i++ {
		if err := c.Add(i, fmt.Sprintf("evict shared term%d", i), float64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	c.Sync()
	return c
}

// rankHits ranks query once and reports whether the cache served it.
func rankHits(t *testing.T, c *Corpus, query string) bool {
	t.Helper()
	before := c.Stats().QueryCacheHits
	if _, err := c.Rank(query, 5); err != nil {
		t.Fatal(err)
	}
	return c.Stats().QueryCacheHits > before
}

// TestQueryCacheAdmitsOnSecondMiss: once the cache is full, a key's
// first miss only leaves its fingerprint with the doorkeeper; the
// second miss stores the entry, so the third request hits.
func TestQueryCacheAdmitsOnSecondMiss(t *testing.T) {
	c := evictCorpus(t, 4)
	for i := 0; i < 4; i++ {
		rankHits(t, c, fmt.Sprintf("evict term%d", i))
	}
	if st := c.Stats(); st.QueryCacheEntries != 4 {
		t.Fatalf("%d entries after 4 first misses with room, want 4", st.QueryCacheEntries)
	}
	const q = "evict term10"
	for i, want := range []bool{false, false, true} {
		if got := rankHits(t, c, q); got != want {
			t.Fatalf("request %d of %q: hit %v, want %v", i+1, q, got, want)
		}
	}
	if st := c.Stats(); st.QueryCacheEntries != 4 {
		t.Fatalf("cache holds %d entries, cap 4", st.QueryCacheEntries)
	}
}

// TestQueryCacheScanKeepsHotSet: a scan of one-shot queries ten times
// the cache's size must not evict the hot set that filled it; filling
// on every miss replaced it entirely.
func TestQueryCacheScanKeepsHotSet(t *testing.T) {
	c := evictCorpus(t, 4)
	for i := 0; i < 4; i++ {
		rankHits(t, c, fmt.Sprintf("evict term%d", i))
	}
	for i := 4; i < 64; i++ {
		if rankHits(t, c, fmt.Sprintf("evict term%d", i)) {
			t.Fatalf("one-shot query %d hit", i)
		}
	}
	for i := 0; i < 4; i++ {
		if !rankHits(t, c, fmt.Sprintf("evict term%d", i)) {
			t.Fatalf("hot query %d evicted by the scan", i)
		}
	}
}

// TestQueryCacheStaleRefillsAtOnce: a key that is present but stale
// (its epoch moved) refills on its first miss, as it did before the
// doorkeeper, and the refilled entry serves what the uncached path does.
func TestQueryCacheStaleRefillsAtOnce(t *testing.T) {
	pol := policy.Spec{Rule: policy.RuleSelective, K: 1, R: 0.3}
	cached, uncached := twinCorpora(t, 60, pol)
	cached.qcache = newQueryCache(4)
	queries := []string{"cache g0", "cache g1", "cache g2", "cache g3"}
	for _, q := range queries {
		if _, err := cached.Rank(q, 5); err != nil {
			t.Fatal(err)
		}
	}
	epoch := cached.Epoch()
	events := []Event{{Page: 9, Slot: 1, Impressions: 5, Clicks: 4}} // page 9 is in g1
	for _, c := range []*Corpus{cached, uncached} {
		if err := c.Feedback(events); err != nil {
			t.Fatal(err)
		}
		c.Sync()
	}
	if cached.Epoch() == epoch {
		t.Fatal("feedback left the corpus epoch unchanged")
	}
	for _, q := range queries {
		if rankHits(t, cached, q) {
			t.Fatalf("%q served from a stale entry", q)
		}
		if !rankHits(t, cached, q) {
			t.Fatalf("%q did not refill on its first stale miss", q)
		}
		a, _ := cached.RankSeeded(q, 5, 9)
		b, _ := uncached.RankSeeded(q, 5, 9)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%q after refill: cached %+v != uncached %+v", q, a, b)
		}
	}
}

// groupQueries is 24 distinct queries over twinCorpora's pages, each
// matching several of them.
func groupQueries() []string {
	var qs []string
	for g := 0; g < 8; g++ {
		qs = append(qs, fmt.Sprintf("cache g%d", g), fmt.Sprintf("topic g%d", g), fmt.Sprintf("cache topic g%d", g))
	}
	return qs
}

// TestQueryCacheIdentityFull is TestQueryCacheIdentity over a cache of
// four entries and 24 keys: every request meets a full cache, so it
// covers the doorkeeper's uncached first miss, its admitting second
// miss and the hit that follows, each byte-identical to the uncached
// path at the same seed.
func TestQueryCacheIdentityFull(t *testing.T) {
	pol := policy.Spec{Rule: policy.RuleSelective, K: 2, R: 0.4}
	cached, uncached := twinCorpora(t, 60, pol)
	cached.qcache = newQueryCache(4)
	seed := uint64(0)
	for round := 0; round < 2; round++ {
		for _, q := range groupQueries() {
			for rep := 0; rep < 3; rep++ {
				seed++
				a, err := cached.RankSeeded(q, 6, seed)
				if err != nil {
					t.Fatal(err)
				}
				b, err := uncached.RankSeeded(q, 6, seed)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("%q seed %d: cached %+v != uncached %+v", q, seed, a, b)
				}
			}
		}
	}
	st := cached.Stats()
	if st.QueryCacheHits == 0 || st.QueryCacheEntries != 4 {
		t.Fatalf("hits %d, entries %d: want hits and a full cache of 4", st.QueryCacheHits, st.QueryCacheEntries)
	}
}

// TestQueryCacheConcurrentFull races ranks over a full cache of four
// entries: goroutines mix the hot keys with one-shot and repeated
// misses, so lookups, doorkeeper slots, admissions and evictions all
// interleave. Run under -race; every result must still equal the
// uncached corpus's at the same seed.
func TestQueryCacheConcurrentFull(t *testing.T) {
	pol := policy.Spec{Rule: policy.RuleSelective, K: 1, R: 0.3}
	cached, uncached := twinCorpora(t, 60, pol)
	cached.qcache = newQueryCache(4)
	queries := groupQueries()
	for _, q := range queries[:4] {
		if _, err := cached.Rank(q, 5); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				q := queries[(i*(g+1)+g)%len(queries)]
				seed := uint64(g*1000 + i)
				a, err := cached.RankSeeded(q, 5, seed)
				if err != nil {
					errs <- err
					return
				}
				b, _ := uncached.RankSeeded(q, 5, seed)
				if !reflect.DeepEqual(a, b) {
					errs <- fmt.Errorf("%q seed %d: cached %+v != uncached %+v", q, seed, a, b)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := cached.Stats(); st.QueryCacheEntries > 4 || st.QueryCacheHits == 0 {
		t.Fatalf("entries %d (cap 4), hits %d", st.QueryCacheEntries, st.QueryCacheHits)
	}
}

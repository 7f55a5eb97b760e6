package serve

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/policy"
	"repro/internal/randutil"
	"repro/internal/stats"
)

// unevenPoolCorpus builds two shards whose zero-awareness pools differ a
// hundredfold: shard 0 (even ids) holds big pool pages, shard 1 (odd
// ids) small ones, next to ten aware pages. Every page shares one topic,
// so the query path sees the same pool as the browse path.
func unevenPoolCorpus(t *testing.T, pol policy.Spec, big, small int) (c *Corpus, pool []int) {
	t.Helper()
	c = newTestCorpus(t, Config{Shards: 2, Seed: 3, Policy: pol})
	for i := 0; i < big; i++ {
		pool = append(pool, 2*i)
	}
	for i := 0; i < small; i++ {
		pool = append(pool, 2*i+1)
	}
	for _, id := range pool {
		if err := c.Add(id, "uneven topic", 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if err := c.Add(100000+i, "uneven topic", float64(10-i)); err != nil {
			t.Fatal(err)
		}
	}
	c.Sync()
	return c, pool
}

// TestBrowsePromotionUniformAcrossShards is the selective rule's
// exactness test on a sharded corpus: 2 shards with 2,000 and 20
// zero-awareness pages, selective:1:1, 20,000 seeded browse ranks with
// no publish in between. Every slot is promoted, and each must be a
// uniform draw from all 2,020 pool pages: per-page counts pass a
// chi-square test against uniform, the small shard takes its 0.99%
// share, and every pool page is promoted within the one epoch. A
// per-shard pool sample (the design this replaced) gave the small shard
// 13.4% and reached 148 of the 2,020 pages.
func TestBrowsePromotionUniformAcrossShards(t *testing.T) {
	c, pool := unevenPoolCorpus(t, policy.Spec{Rule: policy.RuleSelective, K: 1, R: 1}, 2000, 20)
	for _, tc := range []struct {
		query string
		ranks int
	}{{"", 20000}, {"uneven topic", 5000}} {
		epoch := c.Epoch()
		counts := map[int]int{}
		small, slots := 0, 0
		for seed := 1; seed <= tc.ranks; seed++ {
			res, err := c.RankSeeded(tc.query, 10, uint64(seed))
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range res {
				if !r.Promoted {
					t.Fatalf("query %q: r=1 served an unpromoted slot %+v", tc.query, r)
				}
				counts[r.ID]++
				slots++
				if r.ID%2 == 1 {
					small++
				}
			}
		}
		if c.Epoch() != epoch {
			t.Fatalf("query %q: a publish happened during the probe", tc.query)
		}
		observed := make([]int, len(pool))
		expected := make([]float64, len(pool))
		for i, id := range pool {
			observed[i] = counts[id]
			expected[i] = float64(slots) / float64(len(pool))
		}
		stat, df, err := stats.ChiSquare(observed, expected, 5)
		if err != nil {
			t.Fatal(err)
		}
		if crit := stats.ChiSquareCritical999(df); stat > crit {
			t.Errorf("query %q: per-page promotion chi2 = %.0f > %.0f (df %d)", tc.query, stat, crit, df)
		}
		share, want := float64(small)/float64(slots), 20.0/2020
		if sd := math.Sqrt(want * (1 - want) / float64(slots)); math.Abs(share-want) > 5*sd {
			t.Errorf("query %q: small shard took %.2f%% of promoted slots, want %.2f%%", tc.query, 100*share, 100*want)
		}
		if len(counts) != len(pool) {
			t.Errorf("query %q: %d of %d pool pages promoted within one epoch", tc.query, len(counts), len(pool))
		}
	}
}

// TestPromotedPositionsMatchResolver: the share of requests whose
// position p is promoted is Resolver.PromotedProbability(p) of the
// paper's merge over the whole corpus, on the browse and the query path.
func TestPromotedPositionsMatchResolver(t *testing.T) {
	const n, k, r, ranks = 10, 2, 0.3, 20000
	c, pool := unevenPoolCorpus(t, policy.Spec{Rule: policy.RuleSelective, K: k, R: r}, 60, 6)
	res, err := policy.NewResolver(make(policy.Slice, 10), make(policy.Slice, len(pool)), k, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, query := range []string{"", "uneven topic"} {
		promoted := make([]int, n)
		for seed := 1; seed <= ranks; seed++ {
			got, err := c.RankSeeded(query, n, uint64(seed))
			if err != nil {
				t.Fatal(err)
			}
			for i, slot := range got {
				if slot.Promoted {
					promoted[i]++
				}
			}
		}
		for i, got := range promoted {
			p := res.PromotedProbability(i + 1)
			sd := math.Sqrt(ranks * p * (1 - p))
			if math.Abs(float64(got)-ranks*p) > 5*sd+1 {
				t.Errorf("query %q position %d: promoted %d of %d, want %.0f", query, i+1, got, ranks, ranks*p)
			}
		}
	}
}

// TestCoinRulePoolsEachPageAtRateR: under the uniform rule every
// candidate — the ranked pages and every zero-awareness page of either
// shard, however unequal their pools — is pooled with probability r,
// although the browse path visits only the pooled pool pages
// (geometric skips).
func TestCoinRulePoolsEachPageAtRateR(t *testing.T) {
	const r, trials = 0.3, 4000
	c, pool := unevenPoolCorpus(t, policy.Spec{Rule: policy.RuleUniform, K: 1, R: r}, 300, 30)
	arm := c.arms[0]
	rng := randutil.New(5)
	rs := c.scratch.Get().(*reqScratch)
	defer c.scratch.Put(rs)
	counts := map[int]int{}
	for trial := 0; trial < trials; trial++ {
		rs.det, rs.pool = rs.det[:0], rs.pool[:0]
		c.browseCandidates(arm.spec.Selection(), r, 10, rng, rs)
		if len(rs.det) > 10 {
			t.Fatalf("det holds %d candidates, want <= n", len(rs.det))
		}
		for _, seq := range rs.pool {
			counts[seq]++
		}
	}
	view := c.table.view()
	ids := map[int]int{}
	for seq := range counts {
		ids[int(slotAt(view, seq).id.Load())] = counts[seq]
	}
	var check []int
	check = append(check, pool...)
	for i := 0; i < 10; i++ {
		check = append(check, 100000+i)
	}
	mean, sd := trials*r, math.Sqrt(trials*r*(1-r))
	observed := make([]int, len(check))
	expected := make([]float64, len(check))
	for i, id := range check {
		observed[i], expected[i] = ids[id], mean
		if math.Abs(float64(ids[id])-mean) > 5*sd {
			t.Errorf("page %d pooled %d of %d times, want ~%.0f", id, ids[id], trials, mean)
		}
	}
	// The per-page counts are binomial, so Σ(o−e)²/e runs (1−r) times
	// a chi-square; the gate keeps that slack.
	stat, df, err := stats.ChiSquare(observed, expected, 5)
	if err != nil {
		t.Fatal(err)
	}
	if crit := stats.ChiSquareCritical999(df); stat > crit {
		t.Errorf("pooled frequencies chi2 = %.0f > %.0f (df %d)", stat, crit, df)
	}
}

// TestQueryCoinPoolBoundedByN: the uniform rule's query path keeps a
// reservoir of at most n pooled matches, however many matches the coin
// pools, and every match stays equally likely to be promoted.
func TestQueryCoinPoolBoundedByN(t *testing.T) {
	const n, ranks = 5, 6000
	c := newTestCorpus(t, Config{Shards: 3, Seed: 8, Policy: policy.Spec{Rule: policy.RuleUniform, K: 1, R: 0.5}})
	for i := 0; i < 200; i++ {
		if err := c.Add(i, "coin topic", 0); err != nil {
			t.Fatal(err)
		}
	}
	c.Sync()
	rs := c.scratch.Get().(*reqScratch)
	rs.det, rs.pool = rs.det[:0], rs.pool[:0]
	c.queryCandidates(c.arms[0], 0.5, "coin topic", n, randutil.New(1), rs)
	if len(rs.pool) != n {
		t.Fatalf("coin reservoir holds %d pages, want n = %d", len(rs.pool), n)
	}
	c.scratch.Put(rs)
	counts := make([]int, 200)
	slots := 0
	for seed := 1; seed <= ranks; seed++ {
		res, err := c.RankSeeded("coin topic", n, uint64(seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			if r.Promoted {
				counts[r.ID]++
				slots++
			}
		}
	}
	expected := make([]float64, len(counts))
	for i := range expected {
		expected[i] = float64(slots) / float64(len(counts))
	}
	stat, df, err := stats.ChiSquare(counts, expected, 5)
	if err != nil {
		t.Fatal(err)
	}
	if crit := stats.ChiSquareCritical999(df); stat > crit {
		t.Errorf("promoted matches chi2 = %.0f > %.0f (df %d)", stat, crit, df)
	}
}

// TestCowPoolViewsStayIntact drives one pool through seeded births,
// swap-removals and freezes and checks, after every op, that the pool
// holds exactly its members and that every view frozen so far still
// reads what it read when frozen — the copy-on-write rules in action.
// It also pins the cost: a freeze shares every chunk, and a removal
// replaces at most two of them (its own and the tail).
func TestCowPoolViewsStayIntact(t *testing.T) {
	rng := randutil.New(21)
	p := cowPool{pos: map[int]int{}}
	var members []int
	type frozen struct {
		view poolView
		want []int
	}
	var views []frozen
	next := 0
	for op := 0; op < 6000; op++ {
		switch k := rng.Intn(10); {
		case k < 5 || len(members) == 0:
			p.add(next)
			members = append(members, next)
			next++
		case k < 9:
			j := rng.Intn(len(members))
			victim := members[j]
			members[j] = members[len(members)-1]
			members = members[:len(members)-1]
			if k > 5 {
				// A removal between freezes writes private chunks in place.
				p.remove(victim)
				break
			}
			before := p.freeze()
			views = append(views, frozen{before, viewInts(before)})
			p.remove(victim)
			after := p.freeze()
			changed := 0
			for c := range after.chunks {
				if c >= len(before.chunks) || after.chunks[c] != before.chunks[c] {
					changed++
				}
			}
			if changed > 2 {
				t.Fatalf("op %d: one removal replaced %d chunks", op, changed)
			}
		default:
			v := p.freeze()
			views = append(views, frozen{v, viewInts(v)})
		}
		if p.n != len(members) || len(p.pos) != len(members) {
			t.Fatalf("op %d: pool holds %d (%d positions), want %d", op, p.n, len(p.pos), len(members))
		}
		for _, id := range members {
			if i, ok := p.pos[id]; !ok || p.spine[i/poolChunkLen][i%poolChunkLen] != id {
				t.Fatalf("op %d: member %d not at its position", op, id)
			}
		}
		if op%100 == 0 {
			for vi, f := range views {
				if got := viewInts(f.view); fmt.Sprint(got) != fmt.Sprint(f.want) {
					t.Fatalf("op %d: view %d changed after it was published", op, vi)
				}
			}
		}
	}
	if next < 3*poolChunkLen {
		t.Fatalf("only %d births: the ops never spanned several chunks", next)
	}
}

func viewInts(v poolView) []int {
	out := make([]int, v.n)
	for i := range out {
		out[i] = v.at(i)
	}
	return out
}

// TestPublishSharesPoolChunks: a rank-changing click on an aware page
// republishes the shard, and the new snapshot's pool is the old one's
// chunks, not a copy.
func TestPublishSharesPoolChunks(t *testing.T) {
	c := newTestCorpus(t, Config{Shards: 1, Seed: 6})
	for i := 0; i < 3*poolChunkLen; i++ {
		if err := c.Add(i, "fresh page", 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Add(100000, "anchor page", 5); err != nil {
		t.Fatal(err)
	}
	c.Sync()
	before := c.shards[0].snap.Load()
	c.Feedback([]Event{{Page: 100000, Slot: 1, Clicks: 1}})
	c.Sync()
	after := c.shards[0].snap.Load()
	if after.epoch == before.epoch {
		t.Fatal("the click did not republish")
	}
	if after.pool.n != before.pool.n || len(after.pool.chunks) != 3 {
		t.Fatalf("pool %d pages in %d chunks, want %d in 3", after.pool.n, len(after.pool.chunks), before.pool.n)
	}
	for i := range after.pool.chunks {
		if after.pool.chunks[i] != before.pool.chunks[i] {
			t.Fatalf("chunk %d was copied by a publish that changed no pool page", i)
		}
	}
}

// TestConcurrentPoolChurnDuringBrowse races browse ranks that draw
// every slot from the pool (r = 1) against births, promotions and
// removals spread over several chunks per shard, so readers hold views
// while the appliers copy and swap chunks. Every served list must stay
// well-formed: known ids only, no page twice. Run it under -race too.
func TestConcurrentPoolChurnDuringBrowse(t *testing.T) {
	const initial, extra = 1200, 600
	c := newTestCorpus(t, Config{Shards: 2, Seed: 4, Policy: policy.Spec{Rule: policy.RuleSelective, K: 1, R: 1}})
	for i := 0; i < initial; i++ {
		if err := c.Add(i, "churn topic", 0); err != nil {
			t.Fatal(err)
		}
	}
	c.Sync()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < extra; i++ {
			if err := c.Add(initial+i, "churn topic", 0); err != nil {
				t.Error(err)
				return
			}
			c.Feedback([]Event{{Page: i, Slot: 1, Impressions: 1, Clicks: 1}})
			if i%3 == 0 && !c.Remove(initial-1-i) {
				t.Errorf("remove %d: page not found", initial-1-i)
				return
			}
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for seed := uint64(g); ; seed += 3 {
				select {
				case <-done:
					return
				default:
				}
				res, err := c.RankSeeded("", 20, seed)
				if err != nil {
					t.Error(err)
					return
				}
				seen := make(map[int]bool, len(res))
				for _, r := range res {
					if r.ID < 0 || r.ID >= initial+extra || seen[r.ID] {
						t.Errorf("served page %d: unknown or twice in %+v", r.ID, res)
						return
					}
					seen[r.ID] = true
				}
			}
		}(g)
	}
	wg.Wait()
	c.Sync()
	want := initial + extra - extra - (extra+2)/3
	if st := c.Stats(); st.ZeroAware != want {
		t.Fatalf("zero-awareness pages %d, want %d", st.ZeroAware, want)
	}
}

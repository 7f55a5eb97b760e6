package serve

import (
	"math"

	"repro/internal/policy"
	"repro/internal/randutil"
	"repro/internal/rankengine"
	"repro/internal/searchidx"
)

// reqScratch is the per-request working set, recycled through a pool so a
// steady-state Rank call allocates only its result slice. A request's
// promotion pool is one of three sources: pool, the pages the coin rule
// pooled; matches, a read-only view of a query's zero-awareness matches
// (rs.poolAll's or a cache entry's, never appended to); or global, every
// shard's published pool.
type reqScratch struct {
	rng     *randutil.RNG
	sc      policy.Scratch
	det     []int
	pool    []int
	matches policy.Slice
	global  globalPool
	ids     []int
	poolAll []int
	u32     []uint32
	cand    []candRef
	heads   []int
	snaps   []*snapshot
}

// Rank serves one query: lock-free candidate assembly, one bounded
// merge under the assigned arm's policy, at most n results. An empty
// query ranks the whole corpus by merging the shard top-list
// snapshots; a non-empty query ranks the conjunctive matches
// from the search index. Each call randomizes independently, the way
// every user query sees a fresh merge. With multiple arms and no unit
// ID, the arm is drawn by weight per request.
func (c *Corpus) Rank(query string, n int) ([]Result, error) {
	res, _ := c.rankInto(query, n, nil, "", nil, nil)
	return res, nil
}

// RankSeeded is Rank with caller-controlled randomness, for reproducible
// tests and benchmarks.
func (c *Corpus) RankSeeded(query string, n int, seed uint64) ([]Result, error) {
	res, _ := c.rankInto(query, n, &seed, "", nil, nil)
	return res, nil
}

// RankUnit serves a request on behalf of the given experiment unit (a
// user or session ID): the unit hashes deterministically to an arm, so
// the same unit always sees the same policy at a fixed arm set. It
// returns the serving arm's name for feedback attribution.
func (c *Corpus) RankUnit(unit, query string, n int) ([]Result, string, error) {
	res, arm := c.rankInto(query, n, nil, unit, nil, nil)
	return res, arm, nil
}

// RankUnitSeeded is RankUnit with caller-controlled merge randomness.
func (c *Corpus) RankUnitSeeded(unit, query string, n int, seed uint64) ([]Result, string, error) {
	res, arm := c.rankInto(query, n, &seed, unit, nil, nil)
	return res, arm, nil
}

// rankInto is the request entry shared by the public API and the HTTP
// handler: results are appended to dst (which may be nil), so a pooled
// caller pays no result allocation either. forced, when non-nil,
// overrides arm assignment.
func (c *Corpus) rankInto(query string, n int, seed *uint64, unit string, forced *armState, dst []Result) ([]Result, string) {
	rs := c.scratch.Get().(*reqScratch)
	defer c.scratch.Put(rs)
	rng := rs.rng
	if seed != nil {
		rng = randutil.New(*seed)
	}
	arm := forced
	if arm == nil {
		arm = c.armFor(unit, rng)
	}
	return c.rank(arm, query, n, rng, rs, dst), arm.name
}

func (c *Corpus) rank(arm *armState, query string, n int, rng *randutil.RNG, rs *reqScratch, dst []Result) []Result {
	if n <= 0 {
		n = DefaultTopN
	}
	arm.requests.Add(1)
	// The merge parameters are read once per request; state-dependent
	// policies (epsilon-decay) observe the live population counters.
	k, r := arm.spec.Params(policy.State{
		Pages:     int(c.pages.Load()),
		ZeroAware: int(c.zeroAware.Load()),
	})
	rs.det, rs.pool = rs.det[:0], rs.pool[:0]
	var pool policy.Source
	if query == "" {
		pool = c.browseCandidates(arm.spec.Selection(), r, n, rng, rs)
	} else {
		pool = c.queryCandidates(arm, r, query, n, rng, rs)
	}
	// The sources are pointers into rs, which box without allocating. The
	// bounded merge fills only the n served slots, reading at most n
	// pool pages however many the source holds.
	merged, fromPool := rs.sc.MergeBounded((*policy.Slice)(&rs.det), pool, n, k, r, rng)
	if cap(dst) < len(merged) {
		dst = make([]Result, 0, len(merged))
	} else {
		dst = dst[:0]
	}
	// The pipeline flows in slot space (birth sequences); the dense table
	// converts each merged slot back to its page id and popularity with
	// two direct loads.
	view := c.table.view()
	for i, seq := range merged {
		res := Result{Promoted: fromPool[i]}
		if slot := slotAt(view, seq); slot != nil {
			res.ID = int(slot.id.Load())
			res.Popularity = math.Float64frombits(slot.pop.Load())
		}
		dst = append(dst, res)
	}
	return dst
}

// mergeSnapshotTops walks the shard snapshots' deterministic top-lists
// in global rank order (rankengine.Less across the current heads),
// calling visit for each entry until every list is exhausted or visit
// returns false. heads must hold len(snaps) zeroed cursors. With a
// handful of shards a linear head scan beats a heap.
func mergeSnapshotTops(snaps []*snapshot, heads []int, visit func(e rankengine.Entry) bool) {
	for {
		best := -1
		for si, sn := range snaps {
			if heads[si] >= len(sn.top) {
				continue
			}
			if best == -1 || rankengine.Less(sn.top[heads[si]], snaps[best].top[heads[best]]) {
				best = si
			}
		}
		if best == -1 {
			return
		}
		e := snaps[best].top[heads[best]]
		heads[best]++
		if !visit(e) {
			return
		}
	}
}

// loadSnapshots fills rs with each shard's current snapshot and zeroed
// merge cursors.
func (c *Corpus) loadSnapshots(rs *reqScratch) []*snapshot {
	snaps := rs.snaps[:0]
	for _, sh := range c.shards {
		snaps = append(snaps, sh.snap.Load())
	}
	rs.snaps = snaps
	for i := range rs.heads {
		rs.heads[i] = 0
	}
	return snaps
}

// browseCandidates assembles the det/pool split for the whole-corpus
// ranking from the shard snapshots into rs.det and returns the promotion
// pool's source: a k-way merge of the deterministic top-lists (stopping
// once n det entries are in hand — promotion can only shorten the
// deterministic need) and the shards' published zero-awareness pools,
// split per the arm policy's selection rule at degree of randomization
// r. Entirely lock-free. Candidates are birth sequences (Entry.BirthDay
// is exactly the page's dense slot); the result assembly converts back
// to page ids. Per request the work is O(n) under the selective and
// promotion-free rules and O(n + r·pool) under the coin rule, never a
// pass over the pool.
func (c *Corpus) browseCandidates(sel policy.Selection, r float64, n int, rng *randutil.RNG, rs *reqScratch) policy.Source {
	snaps := c.loadSnapshots(rs)
	rs.global.reset(snaps)
	appendRanked := func(dst []int, limit int) []int {
		mergeSnapshotTops(snaps, rs.heads, func(e rankengine.Entry) bool {
			dst = append(dst, e.BirthDay)
			return len(dst) < limit
		})
		return dst
	}
	det, pool := rs.det, rs.pool
	var src policy.Source = (*policy.Slice)(&rs.pool)
	switch sel {
	case policy.SelectUnexplored:
		det = appendRanked(det, n)
		src = &rs.global
	case policy.SelectCoin:
		// The uniform rule pools every result page independently with
		// probability r; zero-awareness pages are ordinary bottom-ranked
		// candidates after the ranked ones, in global pool order.
		ranked := appendRanked(rs.ids[:0], n)
		rs.ids = ranked
		for _, id := range ranked {
			if rng.Bernoulli(r) {
				pool = append(pool, id)
			} else {
				det = append(det, id)
			}
		}
		det, pool = splitCoinPool(&rs.global, r, n, det, pool, rng)
	default: // SelectNone: pure popularity order, unexplored tail last.
		det = appendRanked(det, n)
		for i := 0; i < rs.global.n && len(det) < n; i++ {
			det = append(det, rs.global.At(i))
		}
	}
	rs.det, rs.pool = det, pool
	return src
}

// candRef is one candidate in the query scan's bounded top-n heap: its
// popularity and its dense slot (= birth sequence). candLess is the
// same total order the shard treaps maintain — higher popularity first,
// then older (smaller birth); birth sequences are unique, so the old
// id tie-break is unreachable.
type candRef struct {
	pop float64
	seq int
}

func candLess(a, b candRef) bool {
	if a.pop != b.pop {
		return a.pop > b.pop
	}
	return a.seq < b.seq
}

// offer, heapPush and heapFix maintain best as a bounded binary heap
// with the worst-ranked kept candidate at the root (index 0), so
// selecting the servable top-n from m matches is a true O(m log n) —
// comparisons and element moves both — regardless of arrival order. The
// heap is rank-sorted only once, after the scan.

// heapPush appends cr and sifts it up.
func heapPush(best []candRef, cr candRef) []candRef {
	best = append(best, cr)
	i := len(best) - 1
	for i > 0 {
		p := (i - 1) / 2
		// The parent must not rank better than its children (worst at
		// the root).
		if !candLess(best[p], best[i]) {
			break
		}
		best[p], best[i] = best[i], best[p]
		i = p
	}
	return best
}

// offer keeps cr among best, a heap of at most n candidates: pushed
// while there is room, else put in place of the root if it ranks
// better.
func offer(best []candRef, n int, cr candRef) []candRef {
	switch {
	case len(best) < n:
		return heapPush(best, cr)
	case candLess(cr, best[0]):
		best[0] = cr
		heapFix(best)
	}
	return best
}

// heapFix restores the invariant after best[0] was replaced.
func heapFix(best []candRef) {
	i := 0
	for {
		worst, l, r := i, 2*i+1, 2*i+2
		if l < len(best) && candLess(best[worst], best[l]) {
			worst = l
		}
		if r < len(best) && candLess(best[worst], best[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		best[i], best[worst] = best[worst], best[i]
		i = worst
	}
}

// maxCachedPool bounds the zero-awareness candidate list a cache entry
// may carry; a query matching more unexplored pages than this is served
// uncached rather than pinning unbounded memory per entry.
const maxCachedPool = 4096

// heapSort sorts best (a worst-at-root heap maintained by heapPush and
// heapFix) into rank order, best first, in place: repeatedly swap the
// worst to the end and re-fix the shrunken heap. Replaces sort.Slice,
// which boxes its arguments and allocates per call.
func heapSort(best []candRef) {
	for m := len(best) - 1; m > 0; m-- {
		best[0], best[m] = best[m], best[0]
		heapFix(best[:m])
	}
}

// queryCandidates assembles the det/pool split for a query into rs.det
// and returns the promotion pool's source: lock-free conjunctive
// retrieval from the index snapshot (rarest-first merge/gallop
// intersection into pooled scratch), lock-free stat lookups, then a
// single pass that keeps only the best n deterministic candidates via a
// bounded heap (the merge can never consume more). Every selection rule
// streams its candidates through that one pass. The selective rule's
// pool is the query's zero-awareness matches themselves, handed to the
// bounded merge as they are (no copy, no sample); the coin rule flips
// its coin for each candidate as it streams by, and its pooled matches
// go through a uniform reservoir of at most n, all the merge can draw.
//
// The deterministic scan is block-max pruned: posting lists carry a
// popularity upper bound per chunk of at most 128 entries (searchidx
// bounds.go), and once the heap holds n candidates, whole chunks whose
// bound cannot beat the heap minimum are skipped — the intersection
// work, the slot loads and the heap comparisons all vanish with them — so
// the cold path's cost scales with the answer, not the match count. The
// pruned result is identical to the full scan's: candidates stream in
// ascending birth order, rank ties break older-first, and the bounds
// stay sound under the monotone click invariant (see the property test
// in prune_test.go). The selective pool's candidates come from the
// zero-awareness sub-index, which holds exactly the pool-eligible
// pages, rather than from an aware-filter over the full match set. The
// coin rule owes every candidate its coin flip, so it passes no skip
// and the scan visits every chunk.
//
// Under the unexplored-pool and promotion-free selection rules the
// deterministic assembly is memoized in the hot-query cache, keyed by
// (arm, normalized query): arms rank the same candidates under different
// policies, so the arm name prefixes every key and hot-query memoization
// applies per arm. A hit skips retrieval, stat loads and top-K selection
// entirely and runs the merge over the entry's det list and pool with
// fresh per-request randomness — byte-identical to the uncached path at
// the same RNG seed. A miss builds an entry only when the cache admits
// the key (cache.go): a full cache admits a new key on its second miss,
// so a query that never repeats pays no copies and no write lock. The
// coin selection rule (uniform) draws per candidate to form the pool,
// so its assembly is inherently per-request and bypasses the cache.
func (c *Corpus) queryCandidates(arm *armState, r float64, query string, n int, rng *randutil.RNG, rs *reqScratch) policy.Source {
	snap := c.idx.Snapshot()
	sel := arm.spec.Selection()
	det, pool := rs.det, rs.pool
	coinPool := (*policy.Slice)(&rs.pool)
	var key cacheKey
	fill := false
	if c.qcache != nil && sel != policy.SelectCoin {
		key = cacheKey{arm: arm.name, query: searchidx.NormalizeQuery(query)}
		var e *queryCacheEntry
		if e, fill = c.qcache.get(key, n, snap.Epoch(), c.Epoch()); e != nil {
			c.cacheHits.Add(1)
			rs.det = append(det, e.det[:min(n, len(e.det))]...)
			rs.matches = e.pool
			return &rs.matches
		}
		c.cacheMisses.Add(1)
	}
	// Record the epochs before scanning: if the index or any shard
	// changes mid-build, the stored entry is already stale and the next
	// request rebuilds instead of reusing a torn view.
	idxEpoch, srvEpoch := snap.Epoch(), c.Epoch()
	// The postings stream IS the slot stream: each retrieved document id
	// is the page's birth sequence, so a candidate's stats are two direct
	// loads from the dense table — no map lookups, no pointer chasing.
	view := c.table.view()
	best := rs.cand[:0]
	poolAll := rs.poolAll[:0]
	coin, unexplored := sel == policy.SelectCoin, sel == policy.SelectUnexplored
	var skip func(upper float64) bool
	if !coin {
		skip = func(upper float64) bool {
			// Skip only when the heap is full and nothing under the
			// bound can displace its minimum: every unseen candidate is
			// younger than every kept one and rank ties break
			// older-first, so upper == best[0].pop cannot beat it.
			return len(best) == n && upper <= best[0].pop
		}
	}
	poolSeen := 0
	ps := snap.RetrievePruned(query, skip, func(ids []uint32) {
		for _, seq32 := range ids {
			seq := int(seq32)
			slot := slotAt(view, seq)
			if slot == nil {
				continue
			}
			m := slot.meta.Load()
			if !liveMeta(m) {
				continue
			}
			switch {
			case coin && rng.Bernoulli(r):
				// Algorithm R, interleaved with the coin flips exactly as
				// the candidates stream by: a uniform min(n, pooled)
				// subset. The merge draws at most n pool pages, so
				// drawing them from a uniform n-subset is the same law as
				// drawing from every pooled match.
				poolSeen++
				if len(pool) < n {
					pool = append(pool, seq)
				} else if j := rng.Intn(poolSeen); j < n {
					pool[j] = seq
				}
				continue
			case unexplored && m&slotAware == 0:
				// Pool-eligible: enumerated from the sub-index below.
				continue
			}
			best = offer(best, n, candRef{pop: math.Float64frombits(slot.pop.Load()), seq: seq})
		}
	})
	if ps.BlocksSkipped > 0 {
		c.blocksSkipped.Add(uint64(ps.BlocksSkipped))
		c.candidatesPruned.Add(uint64(ps.CandidatesPruned))
	}
	if unexplored {
		// Enumerate exactly today's pool-eligible matches from the
		// zero-awareness sub-index — the same ascending-birth stream
		// the full scan's aware-filter produced, without touching any
		// aware page — re-checking liveness and awareness against the
		// slot. Promotion only ever sets the aware bit, so a page can
		// never appear both here and in det.
		zseqs := c.zidx.Snapshot().RetrieveInto(rs.u32[:0], query)
		rs.u32 = zseqs
		for _, seq32 := range zseqs {
			seq := int(seq32)
			slot := slotAt(view, seq)
			if slot == nil {
				continue
			}
			if m := slot.meta.Load(); !liveMeta(m) || m&slotAware != 0 {
				continue
			}
			poolAll = append(poolAll, seq)
		}
		c.zaCandidates.Add(uint64(len(poolAll)))
	}
	if ps.Candidates == 0 && ps.CandidatesPruned == 0 && len(poolAll) == 0 {
		// Nothing matched at all — same early exit (and same
		// don't-cache-empties behavior) as an empty retrieval.
		rs.poolAll = poolAll
		return coinPool
	}
	heapSort(best)
	rs.cand = best
	for _, cr := range best {
		det = append(det, cr.seq)
	}
	rs.det, rs.pool, rs.poolAll = det, pool, poolAll
	if coin {
		return coinPool
	}
	if fill && len(poolAll) <= maxCachedPool {
		c.qcache.put(key, &queryCacheEntry{
			idxEpoch: idxEpoch,
			srvEpoch: srvEpoch,
			n:        n,
			full:     len(det) < n,
			det:      append([]int(nil), det...),
			pool:     append([]int(nil), poolAll...),
		})
	}
	rs.matches = poolAll
	return &rs.matches
}

// Top returns the deterministic (promotion-free) global top-n explored
// pages by merging the shard snapshots — the ranking a conventional
// engine would serve, and the yardstick for "did feedback promote this
// page into the establishment".
func (c *Corpus) Top(n int) []Stat {
	if n <= 0 {
		n = DefaultTopN
	}
	rs := c.scratch.Get().(*reqScratch)
	defer c.scratch.Put(rs)
	out := make([]Stat, 0, n)
	mergeSnapshotTops(c.loadSnapshots(rs), rs.heads, func(e rankengine.Entry) bool {
		out = append(out, Stat{ID: e.ID, Popularity: e.Popularity, Birth: e.BirthDay, Aware: true})
		return len(out) < n
	})
	return out
}

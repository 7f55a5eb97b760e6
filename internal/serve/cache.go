// Hot-query candidate cache: deterministic retrieval work (conjunctive
// intersection, stat lookups, top-K selection) is reused across requests
// for the same normalized query, while every request still performs its
// own randomized promotion draws — the paper's exploration semantics are
// per-request and the cache must not change a single RNG draw.
//
// An entry is valid only while both epochs it was built under still
// hold: the search-index snapshot epoch (document set unchanged) and the
// corpus epoch (sum of shard snapshot epochs — no rank-changing feedback
// applied). Any mutation bumps one of them, so a stale entry simply
// misses and is rebuilt; entries are never served across a change.
//
// Keys carry the serving arm's name ahead of the normalized query, so
// experiment arms — which rank the same candidates under different
// policies — memoize independently and a hot query stays hot per arm.
package serve

import "sync"

// cacheKey namespaces a normalized query by the experiment arm that
// built the entry. A two-field struct key costs no allocation per
// lookup, unlike concatenating a string prefix.
type cacheKey struct {
	arm   string
	query string
}

// queryCacheEntry is one cached candidate assembly.
type queryCacheEntry struct {
	idxEpoch uint64 // searchidx snapshot epoch at build
	srvEpoch uint64 // corpus (summed shard) epoch at build
	n        int    // det holds the top-n deterministic candidates
	full     bool   // det holds every deterministic match (fewer than n)
	det      []int  // deterministic candidates, best rank first
	pool     []int  // every zero-awareness match, ascending id
}

// covers reports whether the entry can serve a request for m results at
// the given epochs: the deterministic prefix it stores must be at least
// as long as the request needs (or complete), and nothing changed since.
func (e *queryCacheEntry) covers(m int, idxEpoch, srvEpoch uint64) bool {
	return e.idxEpoch == idxEpoch && e.srvEpoch == srvEpoch &&
		(m <= e.n || e.full)
}

// queryCache is a bounded map from (arm, normalized query) to its
// candidate entry. Reads take a shared lock (no allocation — an
// interface-keyed map would box the key per lookup); writes replace
// whole entries. When full, an arbitrary entry is evicted (map iteration
// order), which is cheap and unbiased enough for a hot-query set that is
// much smaller than the cap.
type queryCache struct {
	mu sync.RWMutex
	n  int // capacity in entries
	m  map[cacheKey]*queryCacheEntry
}

func newQueryCache(n int) *queryCache {
	return &queryCache{n: n, m: make(map[cacheKey]*queryCacheEntry, n)}
}

// get returns the entry for the key when it covers a request for m
// results at the current epochs, else nil.
func (qc *queryCache) get(key cacheKey, m int, idxEpoch, srvEpoch uint64) *queryCacheEntry {
	qc.mu.RLock()
	e := qc.m[key]
	qc.mu.RUnlock()
	if e == nil || !e.covers(m, idxEpoch, srvEpoch) {
		return nil
	}
	return e
}

// getStale returns the entry for the key if its deterministic prefix is
// long enough for m results, IGNORING the epoch checks — the degraded
// (overload) mode serves the last built candidate assembly rather than
// paying a rebuild, trading staleness for latency. Callers gate this on
// the corpus being in degraded mode.
func (qc *queryCache) getStale(key cacheKey, m int) *queryCacheEntry {
	qc.mu.RLock()
	e := qc.m[key]
	qc.mu.RUnlock()
	if e == nil || (m > e.n && !e.full) {
		return nil
	}
	return e
}

// put stores (or replaces) the entry for the key.
func (qc *queryCache) put(key cacheKey, e *queryCacheEntry) {
	qc.mu.Lock()
	if _, ok := qc.m[key]; !ok && len(qc.m) >= qc.n {
		for k := range qc.m {
			delete(qc.m, k)
			break
		}
	}
	qc.m[key] = e
	qc.mu.Unlock()
}

// len returns the number of cached entries (telemetry).
func (qc *queryCache) len() int {
	qc.mu.RLock()
	defer qc.mu.RUnlock()
	return len(qc.m)
}

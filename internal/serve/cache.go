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
//
// Because every request draws fresh randomness, a query that never
// repeats gains nothing from its entry, yet filling one costs a write
// lock, an eviction and three allocations copying the assembly, a
// fifth to a third of a cold query's time. So once the cache is full a
// miss fills only on the key's second miss, a one-step form of
// TinyLFU's "doorkeeper" (Einziger, Friedman & Manes, ACM ToS 2017):
// the first miss records the key's fingerprint in a small direct-mapped
// table and returns the assembly uncached. A key already present (stale
// or too short) and any key while there is room still fill on their
// first miss. A stream of one-shot queries therefore neither pays for
// the cache nor evicts the hot set.
package serve

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// cacheKey namespaces a normalized query by the experiment arm that
// built the entry. A two-field struct key costs no allocation per
// lookup, unlike concatenating a string prefix.
type cacheKey struct {
	arm   string
	query string
}

// queryCacheEntries bounds the hot-query cache. The benchmark's rank-hot
// workload (64 queries) fits in it and rank-cold (18× as many) does not,
// so changing it changes what those workloads measure.
const queryCacheEntries = 256

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

// queryCacheDoorSlots sizes the doorkeeper: fingerprint slots, four per
// cache entry. A power of two, so a fingerprint's low bits pick its slot.
const queryCacheDoorSlots = 4 * queryCacheEntries

// queryCache is a bounded map from (arm, normalized query) to its
// candidate entry. Reads take a shared lock (no allocation — an
// interface-keyed map would box the key per lookup); writes replace
// whole entries. When full, an arbitrary entry is evicted (map iteration
// order), which is cheap and unbiased enough for a hot-query set that is
// much smaller than the cap. Admission to a full cache goes through the
// doorkeeper (see the package comment): door holds the fingerprints of
// recent first misses, one per slot, a newer one overwriting an older.
type queryCache struct {
	mu   sync.RWMutex
	n    int // capacity in entries
	m    map[cacheKey]*queryCacheEntry
	seed maphash.Seed
	door [queryCacheDoorSlots]atomic.Uint64
}

func newQueryCache(n int) *queryCache {
	return &queryCache{n: n, m: make(map[cacheKey]*queryCacheEntry, n), seed: maphash.MakeSeed()}
}

// get returns the entry for the key when it covers a request for m
// results at the current epochs. Otherwise it returns nil and fill
// reports whether the caller should build an entry and put it: when the
// key is present but stale or too short, when the cache has room, or
// when the doorkeeper has seen the key miss before.
func (qc *queryCache) get(key cacheKey, m int, idxEpoch, srvEpoch uint64) (e *queryCacheEntry, fill bool) {
	qc.mu.RLock()
	e = qc.m[key]
	room := len(qc.m) < qc.n
	qc.mu.RUnlock()
	switch {
	case e != nil && e.covers(m, idxEpoch, srvEpoch):
		return e, false
	case e != nil || room:
		return nil, true
	}
	return nil, qc.admit(key)
}

// admit reports whether the key's fingerprint is the one an earlier
// miss left in its doorkeeper slot; if not, it leaves it there.
func (qc *queryCache) admit(key cacheKey) bool {
	var h maphash.Hash
	h.SetSeed(qc.seed)
	h.WriteString(key.arm)
	h.WriteByte(0)
	h.WriteString(key.query)
	fp := h.Sum64()
	slot := &qc.door[fp%queryCacheDoorSlots]
	if slot.Load() == fp {
		return true
	}
	slot.Store(fp)
	return false
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

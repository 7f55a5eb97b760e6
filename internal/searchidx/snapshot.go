// Lock-free conjunctive retrieval: every term owns one cell of the term
// table (terms.go) holding its current immutable posting header, and
// queries resolve by rarest-first intersection of chunked sorted
// []uint32 posting lists (bounds.go), into caller- or pool-owned
// scratch. The intersection kernel merges a list alike in size to the
// rarest one linearly, without branches, and gallops (exponential
// search) through a list much longer than it.
package searchidx

import (
	"strings"
	"sync"
	"unicode"
)

// Snapshot is a read handle on the index, at least as fresh as Epoch():
// every mutation numbered Epoch() or below is visible through it, and a
// later one may be. The writer stores a mutation's cells first and the
// epoch last; Index.Snapshot loads the epoch first and each retrieval
// loads each term's cell once afterwards. A result cached under Epoch()
// can therefore be newer than its tag but never older. What a Snapshot
// does not give is point-in-time isolation across terms when it is held
// over a later mutation.
type Snapshot struct {
	epoch uint64
	ix    *Index
}

// Epoch returns the index epoch loaded when the handle was taken. The
// epoch increases by exactly one per index mutation, so it keys caches of
// retrieval results.
func (s Snapshot) Epoch() uint64 { return s.epoch }

// Snapshot returns a read handle tagged with the current epoch: a single
// atomic load, safe to call concurrently with any mutation.
func (ix *Index) Snapshot() Snapshot { return Snapshot{epoch: ix.epoch.Load(), ix: ix} }

// postings returns the term's current posting list, nil when the term
// matches no document.
func (ix *Index) postings(term string) *posting {
	if c := ix.terms.lookup(term); c != nil {
		return c.p.Load()
	}
	return nil
}

// queryScratch is the per-retrieval working set, pooled so a steady-state
// retrieval allocates nothing.
type queryScratch struct {
	terms   []string
	lists   []*posting
	cursors []cursor
	block   []uint32 // per-chunk intersection buffer for RetrievePruned
}

var queryScratchPool = sync.Pool{New: func() any { return new(queryScratch) }}

func (qs *queryScratch) release() {
	// Drop references so the pool does not pin query strings or whole
	// posting lists between requests.
	clear(qs.terms)
	clear(qs.lists)
	clear(qs.cursors)
	queryScratchPool.Put(qs)
}

// RetrieveInto appends the ids of the documents matching every query term
// (conjunctive AND) to dst, in ascending id order, and returns the
// extended slice. Terms are intersected rarest-first, each other list
// merged or galloped by its length against the rarest (intersectChunk),
// streaming directly into dst; internal scratch comes
// from a sync.Pool, so the only allocation is dst growth. When any term
// has no postings, or the query tokenizes to zero terms, dst is returned
// unchanged without allocating.
func (s Snapshot) RetrieveInto(dst []uint32, query string) []uint32 {
	qs := queryScratchPool.Get().(*queryScratch)
	defer qs.release()
	terms := appendTokens(qs.terms[:0], query)
	qs.terms = terms
	if len(terms) == 0 {
		return dst
	}
	lists, ok := s.gatherLists(qs, terms)
	if !ok {
		return dst
	}
	if len(lists) == 1 {
		return lists[0].appendTo(dst)
	}
	return intersectLists(dst, lists, qs.resetCursors(lists))
}

// resetCursors returns one cursor at the start of each list.
func (qs *queryScratch) resetCursors(lists []*posting) []cursor {
	qs.cursors = qs.cursors[:0]
	for _, p := range lists {
		qs.cursors = append(qs.cursors, cursor{ids: p.chunk(0).ids})
	}
	return qs.cursors
}

// gatherLists resolves the deduplicated query terms' postings into
// qs.lists, rarest first. ok is false when any term has no postings —
// the conjunction is empty.
func (s Snapshot) gatherLists(qs *queryScratch, terms []string) (lists []*posting, ok bool) {
	lists = qs.lists[:0]
	for ti, t := range terms {
		if containsTerm(terms[:ti], t) {
			continue
		}
		p := s.ix.postings(t)
		if p == nil {
			qs.lists = lists
			return lists, false
		}
		lists = append(lists, p)
	}
	qs.lists = lists
	// Rarest term first: it drives the intersection, and every other
	// cursor only ever moves forward. Insertion sort — term counts are
	// tiny and sort.Slice would allocate.
	for i := 1; i < len(lists); i++ {
		for j := i; j > 0 && lists[j].n < lists[j-1].n; j-- {
			lists[j], lists[j-1] = lists[j-1], lists[j]
		}
	}
	return lists, true
}

// intersectLists appends the k-way intersection of the sorted lists to
// dst. lists[0] (the rarest) drives, one chunk at a time: its ids are
// merged against each other list alike in size, in O(both lengths), and
// located by galloping in each list more than mergeRatio times longer,
// in O(Σ log(gap)) — bounded by the rarest list, not the largest.
func intersectLists(dst []uint32, lists []*posting, cursors []cursor) []uint32 {
	rare := lists[0]
	for ci := range rare.chunks() {
		var done bool
		if dst, done = intersectChunk(dst, rare.chunk(ci).ids, lists, cursors); done {
			break
		}
	}
	return dst
}

// PruneStats reports what one RetrievePruned call did.
type PruneStats struct {
	// Candidates counts the matching ids streamed to emit.
	Candidates int
	// BlocksSkipped counts driving-list chunks the skip callback pruned.
	BlocksSkipped int
	// CandidatesPruned counts the driving-list entries inside skipped
	// chunks — an upper bound on the matches pruning suppressed (a
	// skipped entry need not have matched the other terms).
	CandidatesPruned int
}

// RetrievePruned streams the conjunctive matches of query in ascending
// id order through emit, giving skip a chance to prune each chunk of
// the driving (rarest) posting list first: skip receives the chunk's
// popularity upper bound and returns true to drop the whole chunk —
// its intersection work, its matches, and the per-candidate work the
// caller would have done. emit may be called many times, once per
// surviving chunk, with a scratch slice valid only for the call.
//
// The pruned scan is exact for bounded top-K selection: candidates
// stream in ascending id order, so every unseen candidate is younger
// than everything a caller's heap already holds, and rank ties break
// toward older documents — a chunk whose upper bound cannot BEAT the
// caller's current threshold (upper <= min kept popularity) contains
// nothing the full scan would have kept. Callers must only skip when
// their selection is already full; see serve.queryCandidates.
//
// A nil skip never prunes (the plain full intersection). The per-call
// scratch comes from the shared pool, so steady-state calls allocate
// nothing.
func (s Snapshot) RetrievePruned(query string, skip func(upper float64) bool, emit func(ids []uint32)) PruneStats {
	var st PruneStats
	qs := queryScratchPool.Get().(*queryScratch)
	defer qs.release()
	terms := appendTokens(qs.terms[:0], query)
	qs.terms = terms
	if len(terms) == 0 {
		return st
	}
	lists, ok := s.gatherLists(qs, terms)
	if !ok {
		return st
	}
	rare := lists[0]
	cursors := qs.resetCursors(lists)
	buf := qs.block
	for ci := range rare.chunks() {
		c := rare.chunk(ci)
		if skip != nil && skip(c.upper()) {
			st.BlocksSkipped++
			st.CandidatesPruned += len(c.ids)
			// The other lists' cursors stay put; the next surviving
			// chunk's first id gallops over the gap.
			continue
		}
		if len(lists) == 1 {
			st.Candidates += len(c.ids)
			emit(c.ids)
			continue
		}
		var done bool
		buf, done = intersectChunk(buf[:0], c.ids, lists, cursors)
		if len(buf) > 0 {
			st.Candidates += len(buf)
			emit(buf)
		}
		// An exhausted other list ends the whole scan: no larger id can
		// match, so the remaining driver chunks are not "pruned", they
		// are simply past the last possible match.
		if done {
			break
		}
	}
	qs.block = buf
	return st
}

// mergeRatio is the intersection kernel's switch point: a list at most
// mergeRatio times as long as the driving list is merged against the
// candidates linearly, a longer one is galloped. Alike in size, an
// entry or two of the other list falls between consecutive candidates,
// so a branch-free step per entry beats a search per candidate whose
// probes are mispredicted branches; skewed, the gaps are long enough
// that galloping's O(log gap) per candidate wins. Swept over 64 random
// list pairs per ratio (100 and 1,000 driving ids), the merge took
// 0.4-0.6 of the gallop's time up to twice the driver's length, 0.7-0.8
// at four and eight times, about the same at twelve, and 1.4-2.2 from
// sixteen on.
const mergeRatio = 8

// intersectChunk appends to dst the ids of one driving-list chunk that
// match every other list, moving each other-list cursor forward; done
// reports that some other list is exhausted, so no later id can match.
// The chunk's ids are copied to dst's tail and filtered there in place,
// one other list at a time, so each list sees only the survivors of the
// ones before it.
func intersectChunk(dst, ids []uint32, lists []*posting, cursors []cursor) (out []uint32, done bool) {
	base := len(dst)
	dst = append(dst, ids...)
	for li := 1; li < len(lists) && len(dst) > base; li++ {
		merge := lists[li].n <= mergeRatio*lists[0].n
		n, ok := lists[li].filter(dst[base:], &cursors[li], merge)
		dst = dst[:base+n]
		done = done || !ok
	}
	return dst, done
}

// filter keeps, at the front of cand and in order, the candidates that
// p holds, and returns how many it kept, moving c forward. ok is false
// when p has no id at or above some candidate: that candidate and every
// later one are dropped, and no later id can match either.
//
// Every candidate is galloped to, unless merge is set: then only those
// where a merge run starts are — the driving chunk's first, the first
// past each end of p's chunks, and the last — so the ids a pruned skip
// passed over cost O(log gap); the runs between are merged linearly.
func (p *posting) filter(cand []uint32, c *cursor, merge bool) (n int, ok bool) {
	for i := 0; i < len(cand); {
		v := cand[i]
		j := gallop(c.ids, c.off, v)
		if j == len(c.ids) {
			if !p.advance(c, v) {
				return n, false
			}
			j = gallop(c.ids, 0, v)
		}
		cand[n] = v
		n += b2i(c.ids[j] == v)
		i++
		if merge {
			i, j, n = mergeRun(cand, c.ids, i, j, n)
		}
		c.off = j
	}
	return n, true
}

// mergeRun continues filter's in-place merge of cand[i:] against
// ids[j:], n candidates kept so far, until either side reaches its last
// entry, and returns the three positions; filter gallops to what is
// left. Each step advances i, j or both, by whether the two heads
// compare at most or at least equal: SETcc and CMOV, no branch to
// mispredict. Each side's successor is loaded before the comparison
// resolves, so a step waits on a conditional move rather than on a load.
func mergeRun(cand, ids []uint32, i, j, n int) (int, int, int) {
	if i+1 >= len(cand) || j+1 >= len(ids) {
		return i, j, n
	}
	x, y := cand[i], ids[j]
	for {
		xn, yn := cand[i+1], ids[j+1]
		cand[n] = x
		n += b2i(x == y)
		le, ge := x <= y, y <= x
		i += b2i(le)
		j += b2i(ge)
		if le {
			x = xn
		}
		if ge {
			y = yn
		}
		if i+1 >= len(cand) || j+1 >= len(ids) {
			return i, j, n
		}
	}
}

// b2i returns 1 for true and 0 for false, without a branch: the
// compiler lowers it to a SETcc.
func b2i(b bool) int {
	var i int
	if b {
		i = 1
	}
	return i
}

// cursor is a read position in a posting list: entry off of chunk ci,
// whose ids it holds.
type cursor struct {
	ids     []uint32
	ci, off int
}

// advance moves c past its chunk, whose ids are all below target, to
// the next chunk whose last id is at least target, reporting false when
// no chunk of p has one.
func (p *posting) advance(c *cursor, target uint32) bool {
	for {
		if c.ci == len(p.spine) {
			return false
		}
		c.ci++
		if c.ids = p.chunk(c.ci).ids; c.ids[len(c.ids)-1] >= target {
			return true
		}
	}
}

// gallop returns the smallest index j in [lo, len(list)] with
// list[j] >= target: an exponential search from lo followed by a binary
// search inside the located window, O(log distance) instead of O(log n).
func gallop(list []uint32, lo int, target uint32) int {
	n := len(list)
	if lo >= n || list[lo] >= target {
		return lo
	}
	// Invariant below: list[lo] < target.
	step := 1
	hi := lo + step
	for hi < n && list[hi] < target {
		lo = hi
		step <<= 1
		hi = lo + step
	}
	if hi > n {
		hi = n
	}
	// list[lo] < target <= list[hi] (or hi == n).
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if list[mid] < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// NormalizeQuery returns the query's canonical retrieval form: its
// lower-cased terms joined by single spaces. Two queries with equal
// normal forms retrieve identical candidate sets, so the normal form
// keys query caches. When the query is already canonical it is returned
// unchanged, without allocating — the hot-path case.
func NormalizeQuery(query string) string {
	if isNormalQuery(query) {
		return query
	}
	qs := queryScratchPool.Get().(*queryScratch)
	terms := appendTokens(qs.terms[:0], query)
	qs.terms = terms
	out := strings.Join(terms, " ")
	qs.release()
	return out
}

// isNormalQuery reports whether query is already in canonical form:
// non-empty, all alphanumeric lower-case terms separated by exactly one
// space, with no leading or trailing space.
func isNormalQuery(query string) bool {
	if query == "" {
		return false
	}
	prevSpace := true // a space at position 0 is a leading space
	for _, r := range query {
		if r == ' ' {
			if prevSpace {
				return false
			}
			prevSpace = true
			continue
		}
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
			return false
		}
		if unicode.ToLower(r) != r {
			return false
		}
		prevSpace = false
	}
	return !prevSpace
}

// Lock-free conjunctive retrieval: every term owns one cell of the term
// table (terms.go) holding its current immutable posting header, and
// queries resolve by rarest-first intersection of chunked sorted
// []uint32 posting lists (bounds.go), into caller- or pool-owned
// scratch. The intersection kernel has two regimes, chosen per driving
// chunk and per other list (kernelFor). A list alike in size to the
// rarest one is probed when the candidates lie close together: its ids
// inside their span set bits of a bitmap, and each candidate tests its
// bit, no step waiting on another. Any other list is galloped: an
// exponential search per candidate.
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
	bits    []uint64 // the probe's bitmap over the candidates' span
	ran     [2]int   // filters run, by kernel: what tests see of the dispatch
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
// probed or galloped against the candidates (intersectChunk),
// streaming directly into dst; internal scratch comes
// from a sync.Pool, so the only allocation is dst growth. When any term
// has no postings, or the query tokenizes to zero terms, dst is returned
// unchanged without allocating.
func (s Snapshot) RetrieveInto(dst []uint32, query string) []uint32 {
	qs := queryScratchPool.Get().(*queryScratch)
	defer qs.release()
	return s.retrieveInto(qs, dst, query)
}

// retrieveInto is RetrieveInto on the caller's scratch.
func (s Snapshot) retrieveInto(qs *queryScratch, dst []uint32, query string) []uint32 {
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
	qs.resetCursors(lists)
	return qs.intersectLists(dst, lists)
}

// resetCursors places one cursor at the start of each list.
func (qs *queryScratch) resetCursors(lists []*posting) {
	qs.cursors = qs.cursors[:0]
	for _, p := range lists {
		qs.cursors = append(qs.cursors, cursor{ids: p.chunk(0).ids})
	}
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
// dst, from the cursors resetCursors placed. lists[0] (the rarest)
// drives, one chunk at a time: its ids are probed in each other list
// alike in size, in O(both lengths), when they lie close enough for the
// bitmap, and located by galloping otherwise, in O(Σ log(gap)) — bounded
// by the rarest list, not the largest.
func (qs *queryScratch) intersectLists(dst []uint32, lists []*posting) []uint32 {
	rare := lists[0]
	for ci := range rare.chunks() {
		var done bool
		if dst, done = qs.intersectChunk(dst, rare.chunk(ci).ids, lists); done {
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
	qs.resetCursors(lists)
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
		buf, done = qs.intersectChunk(buf[:0], c.ids, lists)
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

// skewRatio is the switch between the intersection kernel's regimes by
// length: a list more than skewRatio times as long as the driving list
// is galloped, a shorter one is probed when the candidates' span allows
// (probeWords). Alike in size, an entry or two of the other list falls
// between consecutive candidates, so a step per entry beats a search per
// candidate whose probes are mispredicted branches; skewed, the gaps are
// long enough that galloping's O(log gap) per candidate wins. Swept over
// 64 random list pairs per ratio (100 and 1,000 driving ids), a
// branch-free merge took 0.4-0.6 of the gallop's time up to twice the
// driver's length, 0.7-0.8 at four and eight times, about the same at
// twelve, and 1.4-2.2 from sixteen on; the probe took 0.44-0.73 of that
// merge's time against lists up to eight times as long.
const skewRatio = 8

// probeWords is the span limit of the probe: a list alike in size is
// probed when the candidates' span [first, last] fits in probeWords
// 64-bit words per candidate, galloped when it does not. The probe
// clears the span's words, sets one bit per id of the other list inside
// it and tests one bit per candidate, and none of those steps waits on
// the one before it. The bitmap's clear is the one cost that grows with
// the span. Swept over 64 random candidate sets per cell (8, 32 and 128
// candidates, each against a list of 1, 2 and 8 times as many ids spread
// over the span), the probe took 0.44-0.73 of a branch-free merge's time
// up to eight words per candidate, 0.44-0.77 at sixteen, 0.56-0.85 at 32
// and 0.62-2.0 at 64. Eight keeps the bitmap of a full chunk's
// candidates within 8 KiB, a quarter of a common L1 data cache.
const probeWords = 8

// kernel is one regime of the intersection kernel.
type kernel uint8

const (
	gallopKernel kernel = iota // gallop to each candidate
	probeKernel                // set the list's bits, test the candidates'
)

// kernelFor picks how a list of n ids filters cand, the surviving
// candidates of a chunk of a driving list of n0 ids: probed when it is
// at most skewRatio times as long and cand's span fits in probeWords
// words per candidate, galloped otherwise.
func kernelFor(n0, n int, cand []uint32) kernel {
	if n <= skewRatio*n0 && uint64(cand[len(cand)-1]-cand[0])>>6 < uint64(probeWords*len(cand)) {
		return probeKernel
	}
	return gallopKernel
}

// intersectChunk appends to dst the ids of one driving-list chunk that
// match every other list, moving each other list's cursor forward; done
// reports that some other list is exhausted, so no later id can match.
// The chunk's ids are copied to dst's tail and filtered there in place,
// one other list at a time, so each list sees only the survivors of the
// ones before it, by the kernel kernelFor picks for them.
func (qs *queryScratch) intersectChunk(dst, ids []uint32, lists []*posting) (out []uint32, done bool) {
	base := len(dst)
	dst = append(dst, ids...)
	for li := 1; li < len(lists) && len(dst) > base; li++ {
		cand, p, c := dst[base:], lists[li], &qs.cursors[li]
		var n int
		var ok bool
		if kernelFor(lists[0].n, p.n, cand) == probeKernel {
			words := int((cand[len(cand)-1]-cand[0])>>6) + 1
			if cap(qs.bits) < words {
				qs.bits = make([]uint64, words)
			}
			n, ok = p.probe(cand, c, qs.bits[:words])
			qs.ran[probeKernel]++
		} else {
			n, ok = p.filter(cand, c)
			qs.ran[gallopKernel]++
		}
		dst = dst[:base+n]
		done = done || !ok
	}
	return dst, done
}

// probe is filter's bitmap regime. It keeps, at the front of cand and in
// order, the candidates that p holds, returns how many it kept, and
// moves c past the span [lo, hi] of cand; ok is false when p has no id
// at or above hi. It gallops c to lo, sets bit id-lo of bits for each of
// p's ids up to hi, across p's chunk edges, then keeps each candidate
// whose bit is set. bits holds (hi-lo)/64+1 words.
func (p *posting) probe(cand []uint32, c *cursor, bits []uint64) (n int, ok bool) {
	lo, hi := cand[0], cand[len(cand)-1]
	clear(bits)
	j := gallop(c.ids, c.off, lo)
	if j == len(c.ids) {
		if !p.advance(c, lo) {
			return 0, false
		}
		j = gallop(c.ids, 0, lo)
	}
walk:
	for {
		for k, id := range c.ids[j:] {
			if id > hi {
				c.off, ok = j+k, true
				break walk
			}
			d := id - lo
			bits[d>>6] |= 1 << (d & 63)
		}
		if c.ci == len(p.spine) {
			// p ends inside the span: ok when its last id is hi itself.
			last := c.ids[len(c.ids)-1]
			c.off, ok = len(c.ids), last >= hi
			break
		}
		c.ci++
		c.ids, j = p.chunk(c.ci).ids, 0
	}
	for _, v := range cand {
		d := v - lo
		cand[n] = v
		n += int(bits[d>>6] >> (d & 63) & 1)
	}
	return n, ok
}

// filter keeps, at the front of cand and in order, the candidates that
// p holds, and returns how many it kept, moving c forward: it gallops to
// each candidate, so the ids between two candidates, or a pruned skip's
// gap, cost O(log gap). ok is false when p has no id at or above some
// candidate: that candidate and every later one are dropped, and no
// later id can match either.
func (p *posting) filter(cand []uint32, c *cursor) (n int, ok bool) {
	for _, v := range cand {
		j := gallop(c.ids, c.off, v)
		if j == len(c.ids) {
			if !p.advance(c, v) {
				return n, false
			}
			j = gallop(c.ids, 0, v)
		}
		cand[n] = v
		n += b2i(c.ids[j] == v)
		c.off = j
	}
	return n, true
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

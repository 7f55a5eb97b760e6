// Package searchidx is a minimal search-engine substrate: a tokenizer and
// an in-memory inverted index with conjunctive (AND) retrieval and
// per-chunk popularity bounds for pruned top-K selection.
//
// The paper's model assumes a one-to-one correspondence between queries
// and topics, each query returning exactly the pages of one community
// (§1.4). This package realizes that abstraction concretely: documents
// tagged with topic terms are indexed and a query retrieves the matching
// community. Ranking the retrieved ids is the caller's job — the serving
// layer and the public Ranker both run them through the §4 merge in
// internal/policy.
//
// Concurrency. Mutations (Add, Delete) are serialized by an internal
// mutex. Postings live in one term table owned by the Index —
// term → cell, each cell an atomically replaced immutable posting header
// — so a mutation touches only the cells of the document's own terms and
// nothing is ever cloned or folded. Retrieval — Retrieve, or
// Snapshot.RetrieveInto on the hot path — takes no lock. The one ordering
// rule: a writer stores cells, then the epoch; a reader loads the epoch,
// then cells. A query therefore sees everything up to the epoch it read
// (and possibly more), each list an immutable sorted sequence of chunks
// (bounds.go): an insert copies at most the one chunk it lands in.
//
// The index keeps no document text: Add tokenizes once and records one
// BoundRef per distinct term, which Delete and the bound raises walk.
package searchidx

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"unicode"
)

// Document is an indexable page. IDs must fit in a uint32: postings are
// stored as sorted []uint32 chunks of at most BlockStride ids.
type Document struct {
	ID   int
	Text string
}

// Index is an inverted index over documents. Popularity lives with the
// caller and is read through SetPopFunc for chunk bounds. All methods are
// safe for concurrent use; retrieval is lock-free (see the package
// comment).
type Index struct {
	mu sync.Mutex // serializes mutations and guards the fields below
	// docs is each document's record: its bound refs, walked on delete
	// and on bound raises.
	docs map[int]*docRec
	// terms is the live term table. Written under mu (a cell leaves when
	// its last document does), read lock-free.
	terms termTable
	// epoch counts mutations; bumped after the mutation's cells are stored.
	epoch atomic.Uint64
	// popOf, when set, is the external popularity source consulted for
	// chunk bound computation (see bounds.go).
	popOf func(id uint32) float64
	// rebuildSeq counts the mutations that move documents to other
	// chunk indexes: inserts into full chunks (a split, or a document
	// passed to the next chunk) and spine chunks that empty. A docRec
	// whose seq still equals it holds current chunk indexes. Guarded by
	// mu.
	rebuildSeq uint64
}

// docRec is what the index keeps of a document: one BoundRef per
// distinct term, and the rebuildSeq value their chunk indexes are valid
// for. Written under mu; Raise re-resolves it in place when rebuildSeq
// has moved since.
type docRec struct {
	refs []BoundRef
	seq  uint64
}

// NewIndex creates an empty index.
func NewIndex() *Index {
	ix := &Index{docs: make(map[int]*docRec)}
	ix.terms.init()
	return ix
}

// appendTokens appends the lower-cased alphanumeric terms of text to dst.
// When text is already lower-case the terms share its backing storage and
// the only allocations are dst growth, so pooled callers tokenize free.
func appendTokens(dst []string, text string) []string {
	lower := strings.ToLower(text) // returns text itself when already lower
	start := -1
	for i, r := range lower {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
		} else if start >= 0 {
			dst = append(dst, lower[start:i])
			start = -1
		}
	}
	if start >= 0 {
		dst = append(dst, lower[start:])
	}
	return dst
}

// Add indexes a document. Re-adding an existing ID is an error: documents
// are immutable once indexed (delete and re-add to change). The document
// is retrievable under every one of its terms by the time Add returns.
func (ix *Index) Add(doc Document) error {
	if doc.ID < 0 || int64(doc.ID) > math.MaxUint32 {
		return fmt.Errorf("searchidx: document id %d outside uint32 range", doc.ID)
	}
	qs := queryScratchPool.Get().(*queryScratch)
	defer qs.release()
	terms := appendTokens(qs.terms[:0], doc.Text)
	qs.terms = terms
	if len(terms) == 0 {
		return fmt.Errorf("searchidx: document %d has no indexable terms", doc.ID)
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if _, ok := ix.docs[doc.ID]; ok {
		return fmt.Errorf("searchidx: document %d already indexed", doc.ID)
	}
	id := uint32(doc.ID)
	refs := make([]BoundRef, 0, len(terms))
	for _, t := range terms {
		// One table probe per known term: the header is replaced through
		// the cell. A repeated term finds the document already in its
		// list.
		var cur *posting
		c := ix.terms.lookup(t)
		if c != nil {
			cur = c.p.Load()
		}
		p, ci, present := ix.insertPosting(cur, id)
		if present {
			continue
		}
		if c == nil {
			c = ix.terms.insert(t, p)
		} else {
			c.p.Store(p)
		}
		refs = append(refs, newBoundRef(c.id, ci))
	}
	ix.epoch.Add(1)
	// The document's positions are final now: later mutations that move
	// them also move rebuildSeq past this value.
	ix.docs[doc.ID] = &docRec{refs: refs, seq: ix.rebuildSeq}
	return nil
}

// Delete removes a document. It reports whether the document existed.
func (ix *Index) Delete(id int) bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	rec, ok := ix.docs[id]
	if !ok {
		return false
	}
	delete(ix.docs, id)
	for _, r := range rec.refs {
		c := ix.terms.byID(r.term())
		if p := ix.deletePosting(c.p.Load(), uint32(id)); p != nil {
			c.p.Store(p)
		} else {
			// Last document of the term: the cell leaves the table and its
			// id is reissued, so neither grows under churn.
			ix.terms.remove(c)
		}
	}
	ix.epoch.Add(1)
	return true
}

// containsTerm reports whether t already occurred among the earlier terms
// of a query; a linear scan beats a map for the handful of terms a query
// carries, and allocates nothing.
func containsTerm(terms []string, t string) bool {
	for _, u := range terms {
		if u == t {
			return true
		}
	}
	return false
}

// searchU32 returns the smallest index i with ids[i] >= id (binary search).
func searchU32(ids []uint32, id uint32) int {
	lo, hi := 0, len(ids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Len returns the number of indexed documents.
func (ix *Index) Len() int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return len(ix.docs)
}

// Retrieve returns the ids of the documents matching every query term
// (conjunctive AND), in ascending id order, without ranking them. It is
// the candidate-set hook for callers that keep popularity elsewhere — the
// serving layer retrieves here and ranks against its own live shard
// statistics. The returned slice is freshly allocated; when no document
// matches — including when a term has no postings or the query tokenizes
// to zero terms — Retrieve returns nil without allocating at all. Callers
// on a per-request hot path should prefer Snapshot().RetrieveInto, which
// reuses a caller-owned buffer.
func (ix *Index) Retrieve(query string) []int {
	bufp := idsPool.Get().(*[]uint32)
	ids := ix.Snapshot().RetrieveInto((*bufp)[:0], query)
	if len(ids) == 0 {
		*bufp = ids
		idsPool.Put(bufp)
		return nil
	}
	out := make([]int, len(ids))
	for i, v := range ids {
		out[i] = int(v)
	}
	*bufp = ids
	idsPool.Put(bufp)
	return out
}

var idsPool = sync.Pool{New: func() any { return new([]uint32) }}

// Terms returns the number of distinct indexed terms.
func (ix *Index) Terms() int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.terms.live
}

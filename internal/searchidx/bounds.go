// Posting-block popularity upper bounds: the metadata that lets the
// serving layer's top-K selection skip whole runs of a posting list once
// its bounded heap is full (block-max pruning, WAND-style).
//
// Every non-empty posting list is divided into fixed-stride blocks, and
// each block carries an upper bound on the popularity of the documents in
// it. The system's one free invariant makes the bounds cheap to maintain:
// popularity is monotone non-decreasing (clicks only ever add), so a
// bound, once correct, can only be invalidated by a popularity INCREASE —
// and the writer that applies the increase raises the covering bounds
// with an atomic max, through the document's BoundRefs. An insert raises
// its block by the newcomer; a mid-list one also carries the old bounds
// over and raises each later block by the one entry that shifted into
// it — O(blocks) popularity loads, not O(list). A block may then keep
// the bound of a member that moved on: loose, never unsound. Only a
// delete, whose document may have been a block's maximum, recomputes
// its lists exactly; with monotone popularity nothing else needs
// tightening.
//
// Soundness contract. A raise is issued AFTER the new popularity value is
// visible to the index's popularity source (Index.SetPopFunc), and it
// goes through Index.Raise, which holds ix.mu like every mutation. A
// rebuild that runs before it has stored its cells, so the raise lands
// on the live arrays; one that runs after it either carries the raised
// bound over (an insert) or reads the stored popularity when it
// recomputes (a delete). Either way, once Raise returns, the live list's
// bound covers the new value permanently. Bounds stay atomic because
// pruned readers load them without the lock. In the nanosecond window
// between the popularity store and the raise a concurrent pruned reader
// may still skip the block — it then serves results as if the click had
// not yet been applied, the same bounded staleness a reader that loaded
// the list a moment earlier exhibits. A skipped block never hides a
// document at its OLD popularity: bounds are upper bounds of the
// pre-raise values, and rank ties break toward smaller (earlier) document
// ids, so a block whose bound cannot beat the current heap minimum
// contains nothing the full scan would have kept (see
// Snapshot.RetrievePruned).
package searchidx

import (
	"math"
	"sync/atomic"
)

// BlockStride is the number of posting entries covered by one upper
// bound. Small enough that a skipped block saves real galloping and
// stat-load work, large enough that bound checks are a vanishing
// fraction of an unpruned scan.
const BlockStride = 128

// posting is one term's posting list: the sorted document ids plus the
// per-block popularity upper bounds. Every header stored in a term cell
// has len(ids) > 0 and non-nil bounds. The bounds array is shared by
// every header whose ids share a backing array, so an atomic raise is
// visible to readers of all of them at once.
type posting struct {
	ids []uint32
	b   *blockBounds
}

// blockBounds holds one upper bound per block as float64 bits. For
// non-negative floats the IEEE bit patterns order exactly like the
// values, so max-raising compares the uint64s directly. The zero value
// of a slot is 0.0 — the bound of a block of never-clicked documents.
type blockBounds struct {
	max []atomic.Uint64
}

// nblocks returns how many blocks cover n posting entries.
func nblocks(n int) int { return (n + BlockStride - 1) / BlockStride }

// newBlockBounds allocates bounds sized for capEntries posting slots (so
// append-at-end growth is as rare as slice growth), all zero.
func newBlockBounds(capEntries int) *blockBounds {
	nb := nblocks(capEntries)
	if nb == 0 {
		nb = 1
	}
	return &blockBounds{max: make([]atomic.Uint64, nb)}
}

// resize returns a copy of the bounds sized for capEntries posting
// slots, carrying over the values of the blocks both cover. The
// receiver is left untouched: readers already holding it keep reading
// it; only headers stored after the resize reference the copy.
func (b *blockBounds) resize(capEntries int) *blockBounds {
	nb := newBlockBounds(capEntries)
	for i := range min(len(b.max), len(nb.max)) {
		nb.max[i].Store(b.max[i].Load())
	}
	return nb
}

// upper returns the bound of block bi. Defensive: an index beyond the
// array (a racing reader of a stale pairing) reports +Inf — never skip.
func (b *blockBounds) upper(bi int) float64 {
	if b == nil || bi >= len(b.max) {
		return math.Inf(1)
	}
	return math.Float64frombits(b.max[bi].Load())
}

// raise lifts block bi's bound to at least pop (atomic max). Raising
// never lowers, so concurrent raises and readers need no lock.
func (b *blockBounds) raise(bi int, pop float64) {
	if pop <= 0 || bi >= len(b.max) {
		return
	}
	bits := math.Float64bits(pop)
	for {
		old := b.max[bi].Load()
		if old >= bits || b.max[bi].CompareAndSwap(old, bits) {
			return
		}
	}
}

// popAt resolves a document's current popularity for exact bound
// computation: the installed popularity source, else 0. Callers hold
// ix.mu.
func (ix *Index) popAt(id uint32) float64 {
	if ix.popOf != nil {
		return ix.popOf(id)
	}
	return 0
}

// computeBounds builds exact per-block bounds for ids from the current
// popularity source. Callers hold ix.mu.
func (ix *Index) computeBounds(ids []uint32) *blockBounds {
	b := newBlockBounds(cap(ids))
	for i, id := range ids {
		b.raise(i/BlockStride, ix.popAt(id))
	}
	return b
}

// insertPosting returns p with id inserted in sorted position, and that
// position, with the covering block bound raised to the document's
// current popularity; present reports that id was already there (the
// document repeats the term), and p comes back unchanged. The common
// append-at-end case reuses spare ids capacity (a published header only
// ever covers the prefix that existed when it was stored) and keeps the
// shared bounds array, growing it — copy-on-grow, readers of older
// headers keep theirs — only when a new block opens past its capacity.
// Callers hold ix.mu.
func (ix *Index) insertPosting(p posting, id uint32) (np posting, pos int, present bool) {
	n := len(p.ids)
	if n == 0 || p.ids[n-1] < id {
		ids := append(p.ids, id)
		b := p.b
		if b == nil {
			// Fresh term: exact from scratch.
			return posting{ids: ids, b: ix.computeBounds(ids)}, n, false
		}
		if nb := nblocks(len(ids)); nb > len(b.max) {
			b = b.resize(cap(ids))
		}
		b.raise(n/BlockStride, ix.popAt(id))
		return posting{ids: ids, b: b}, n, false
	}
	pos = searchU32(p.ids, id)
	if p.ids[pos] == id {
		return p, pos, true
	}
	// Every document after pos moves up one place, some into the next
	// block. Blocks before pos's keep their members and bounds; pos's is
	// raised by the newcomer, and each later one by the entry that
	// shifted in from the block before. No raise lands on p.b once it is
	// copied: raises hold ix.mu too.
	ix.rebuildSeq++
	grown := make([]uint32, n+1)
	copy(grown, p.ids[:pos])
	grown[pos] = id
	copy(grown[pos+1:], p.ids[pos:])
	b := p.b.resize(cap(grown))
	b.raise(pos/BlockStride, ix.popAt(id))
	for k := pos/BlockStride + 1; k < nblocks(n+1); k++ {
		b.raise(k, ix.popAt(grown[k*BlockStride]))
	}
	return posting{ids: grown, b: b}, pos, false
}

// SetPopFunc installs the popularity source consulted when block bounds
// are computed exactly (inserts, deletes). The serving layer points this
// at its dense page-stat table so the index never duplicates scores.
// Must be installed before the first Add; documents indexed earlier keep
// zero bounds until a raise.
func (ix *Index) SetPopFunc(f func(id uint32) float64) {
	ix.mu.Lock()
	ix.popOf = f
	ix.mu.Unlock()
}

// BoundRef names the block covering one document in one of its terms'
// posting lists: the term's dense id in the high 32 bits, the block
// index in the low 32. Add records one per distinct term; the block
// index stays valid while the index's rebuildSeq is unchanged.
type BoundRef uint64

func newBoundRef(term uint32, block int) BoundRef {
	return BoundRef(uint64(term)<<32 | uint64(uint32(block)))
}

func (r BoundRef) term() uint32 { return uint32(r >> 32) }
func (r BoundRef) block() int   { return int(uint32(r)) }

// Raise lifts the bounds covering document id to at least pop, through
// the document's record, under the mutation lock — serializing the
// raise with posting rebuilds is what makes it permanent. It
// re-resolves the record's block indexes by binary search only when
// rebuildSeq has moved since they were. It reports false when the
// document is not indexed (yet — replication followers apply frames
// before indexing, and the insert then computes the bound itself).
// Callers store the new popularity first.
func (ix *Index) Raise(id int, pop float64) bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	rec, ok := ix.docs[id]
	if !ok {
		return false
	}
	if rec.seq != ix.rebuildSeq {
		for i, r := range rec.refs {
			ids := ix.terms.byID(r.term()).p.Load().ids
			rec.refs[i] = newBoundRef(r.term(), searchU32(ids, uint32(id))/BlockStride)
		}
		rec.seq = ix.rebuildSeq
	}
	for _, r := range rec.refs {
		ix.terms.byID(r.term()).p.Load().b.raise(r.block(), pop)
	}
	return true
}

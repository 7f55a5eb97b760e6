// Chunked posting lists and their popularity upper bounds: the metadata
// that lets the serving layer's top-K selection skip whole runs of a
// posting list once its bounded heap is full (block-max pruning,
// WAND-style).
//
// Every non-empty posting list is a sequence of chunks of at most
// BlockStride ids, and each chunk carries an upper bound on the
// popularity of the documents in it. A list indexed in id order chunks
// exactly at every BlockStride-th entry; an out-of-order insert copies
// only the chunk it lands in, splitting it when it is full, so a
// replica's births cost O(chunk), not O(list). The system's one free
// invariant makes the bounds cheap to maintain: popularity is monotone
// non-decreasing (clicks only ever add), so a bound, once correct, can
// only be invalidated by a popularity INCREASE — and the writer that
// applies the increase raises the covering bound with an atomic max,
// through the document's BoundRefs. An insert raises its chunk by the
// newcomer. A split, which leaves the full chunk's maximum in only one
// half, and a delete, whose document may have been its chunk's maximum,
// recompute the bounds of the chunks they copy exactly — at most
// BlockStride+1 popularity loads; with monotone popularity nothing else
// needs tightening.
//
// Soundness contract. A raise is issued AFTER the new popularity value is
// visible to the index's popularity source (Index.SetPopFunc), and it
// goes through Index.Raise, which holds ix.mu like every mutation. A
// chunk copy that runs before it has stored its cells, so the raise
// lands on the live chunk; one that runs after it either carries the
// raised bound over (an insert) or reads the stored popularity when it
// recomputes (a split or a delete). Either way, once Raise returns, the live list's
// bound covers the new value permanently. Bounds stay atomic because
// pruned readers load them without the lock. In the nanosecond window
// between the popularity store and the raise a concurrent pruned reader
// may still skip the chunk — it then serves results as if the click had
// not yet been applied, the same bounded staleness a reader that loaded
// the list a moment earlier exhibits. A skipped chunk never hides a
// document at its OLD popularity: bounds are upper bounds of the
// pre-raise values, and rank ties break toward smaller (earlier) document
// ids, so a chunk whose bound cannot beat the current heap minimum
// contains nothing the full scan would have kept (see
// Snapshot.RetrievePruned).
package searchidx

import (
	"math"
	"slices"
	"sync/atomic"
)

// BlockStride is the most ids one chunk holds, each chunk under one
// upper bound. Small enough that a skipped chunk saves real
// intersection and stat-load work, and that an out-of-order insert
// copies little; large enough that bound checks are a vanishing fraction
// of an unpruned scan.
const BlockStride = 128

// chunk is one run of a posting list: 1..BlockStride sorted ids, never
// written once published, and an upper bound on their popularity as
// float64 bits. For non-negative floats the IEEE bit patterns order
// exactly like the values, so max-raising compares the uint64s directly;
// zero is the bound of never-clicked documents.
type chunk struct {
	max atomic.Uint64
	ids []uint32
}

// upper returns the chunk's popularity bound.
func (c *chunk) upper() float64 { return math.Float64frombits(c.max.Load()) }

// raise lifts the chunk's bound to at least pop (atomic max). Raising
// never lowers, so concurrent raises and readers need no lock.
func (c *chunk) raise(pop float64) {
	if pop <= 0 {
		return
	}
	bits := math.Float64bits(pop)
	for {
		old := c.max.Load()
		if old >= bits || c.max.CompareAndSwap(old, bits) {
			return
		}
	}
}

// set makes c hold ids under bound bits. c belongs to an unpublished
// header or spine element.
func (c *chunk) set(ids []uint32, bits uint64) {
	c.ids = ids
	c.max.Store(bits)
}

// posting is one term's posting list, an immutable header once stored
// in its term cell. The tail chunk lives in the header and grows in
// place into its spare capacity: a published header only ever covers
// the prefix that existed when it was stored. The chunks before it sit
// in the spine, an array of chunk headers that grows the same way, so a
// header that shortens it caps its capacity. A spine element is shared
// by every header whose spine covers it, so an atomic raise is visible
// to readers of all of them at once; a spine that is copied takes its
// bounds along, and no raise lands on the original afterwards (raises
// hold ix.mu too).
type posting struct {
	spine []chunk
	tail  chunk
	n     int // entries in all chunks
}

// chunks returns how many chunks the list has: the spine's and the
// tail.
func (p *posting) chunks() int { return len(p.spine) + 1 }

// chunk returns chunk ci, the tail when ci is len(spine).
func (p *posting) chunk(ci int) *chunk {
	if ci < len(p.spine) {
		return &p.spine[ci]
	}
	return &p.tail
}

// locate returns the index of the chunk where id belongs: the first
// whose last id is at least id, else the tail.
func (p *posting) locate(id uint32) int {
	lo, hi := 0, len(p.spine)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ids := p.spine[mid].ids; ids[len(ids)-1] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// appendTo appends the list's ids to dst.
func (p *posting) appendTo(dst []uint32) []uint32 {
	dst = slices.Grow(dst, p.n)
	for ci := range p.spine {
		dst = append(dst, p.spine[ci].ids...)
	}
	return append(dst, p.tail.ids...)
}

// derive returns a fresh header sharing p's chunks, for a mutation to
// replace some of them before it is stored.
func (p *posting) derive(n int) *posting {
	np := &posting{spine: p.spine, n: n}
	np.tail.set(p.tail.ids, p.tail.max.Load())
	return np
}

// ownSpine gives the unpublished header p a copy of its spine, which
// published headers share, for a mutation to replace chunks in.
func (p *posting) ownSpine() {
	p.spine = append(make([]chunk, 0, len(p.spine)+1), p.spine...)
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

// exactBound returns the bound of a chunk holding ids, as float64 bits,
// from the current popularity source. Callers hold ix.mu.
func (ix *Index) exactBound(ids []uint32) uint64 {
	bound := 0.0
	for _, id := range ids {
		bound = max(bound, ix.popAt(id))
	}
	return math.Float64bits(bound)
}

// insertPosting returns a header for p with id inserted in sorted order,
// and the index of the chunk holding it, raised to the document's
// current popularity; present reports that id was already there (the
// document repeats the term), and p comes back unchanged. A nil p is a
// fresh term. An append grows the tail in place, or moves a full tail
// to the spine's end; any other insert copies the one chunk it lands
// in, and the spine when that is not the tail. A full chunk passes its
// last document to the next chunk when that has room, and otherwise
// splits at its middle, both halves' bounds recomputed exactly; either
// moves documents to other chunks. Callers hold ix.mu.
func (ix *Index) insertPosting(p *posting, id uint32) (np *posting, ci int, present bool) {
	if p == nil {
		np = &posting{n: 1}
		np.tail.ids = []uint32{id}
		np.tail.raise(ix.popAt(id))
		return np, 0, false
	}
	// An append, the common case, skips both binary searches.
	ci, pos := len(p.spine), len(p.tail.ids)
	if p.tail.ids[pos-1] >= id {
		ci = p.locate(id)
		ids := p.chunk(ci).ids
		if pos = searchU32(ids, id); pos < len(ids) && ids[pos] == id {
			return p, ci, true
		}
	}
	c := p.chunk(ci)
	np = p.derive(p.n + 1)
	inTail := ci == len(p.spine)
	if !inTail {
		np.ownSpine()
	}
	switch {
	case inTail && pos == len(c.ids) && pos < BlockStride:
		np.tail.ids = append(c.ids, id)
	case inTail && pos == len(c.ids):
		np.spine = append(p.spine, chunk{})
		np.spine[ci].set(c.ids, c.max.Load())
		np.tail.set([]uint32{id}, 0)
		ci++
	case len(c.ids) < BlockStride:
		// Keep the chunk's spare capacity for the appends that follow.
		ids := slices.Insert(append(make([]uint32, 0, max(len(c.ids)+1, cap(c.ids))), c.ids...), pos, id)
		np.chunk(ci).set(ids, c.max.Load())
	case !inTail && len(p.chunk(ci+1).ids) < BlockStride:
		// The next chunk has room: the full chunk's last document moves
		// to its front, which keeps chunks full where a split would
		// leave two half-empty.
		ix.rebuildSeq++
		next := p.chunk(ci + 1)
		moved := c.ids[BlockStride-1]
		ids := slices.Insert(append(make([]uint32, 0, BlockStride), c.ids[:BlockStride-1]...), pos, id)
		nids := slices.Insert(append(make([]uint32, 0, max(len(next.ids)+1, cap(next.ids))), next.ids...), 0, moved)
		np.chunk(ci).set(ids, c.max.Load())
		np.chunk(ci+1).set(nids, next.max.Load())
		np.chunk(ci + 1).raise(ix.popAt(moved))
	default:
		// Each half gets its exact bound: a copy of the full chunk's
		// would overstate the half its maximum did not land in. The
		// documents of the right half move to the next chunk.
		ix.rebuildSeq++
		const half = BlockStride / 2
		rcap := half + 1
		if inTail {
			rcap = BlockStride
		}
		left := append(make([]uint32, 0, half+1), c.ids[:half]...)
		right := append(make([]uint32, 0, rcap), c.ids[half:]...)
		if pos < half {
			left = slices.Insert(left, pos, id)
		} else {
			right = slices.Insert(right, pos-half, id)
		}
		// The left half takes the full chunk's place and the right one
		// follows it; a split tail's left half joins the spine's end.
		if inTail {
			np.spine = append(np.spine, chunk{})
		} else {
			np.spine = slices.Insert(np.spine, ci+1, chunk{})
		}
		np.spine[ci].set(left, ix.exactBound(left))
		np.chunk(ci+1).set(right, ix.exactBound(right))
		if pos >= half {
			ci++
		}
		return np, ci, false
	}
	np.chunk(ci).raise(ix.popAt(id))
	return np, ci, false
}

// deletePosting returns a header for p without id — p itself when id is
// not in it, nil when id was its last entry. The one chunk that held id
// is copied and its bound recomputed exactly — the document may have
// been its maximum. A spine chunk that empties leaves the spine, moving
// later documents to earlier chunks; an emptied tail is replaced by the
// spine's last chunk. Callers hold ix.mu.
func (ix *Index) deletePosting(p *posting, id uint32) *posting {
	ci := p.locate(id)
	c := p.chunk(ci)
	pos := searchU32(c.ids, id)
	if pos == len(c.ids) || c.ids[pos] != id {
		return p
	}
	if p.n == 1 {
		return nil
	}
	np := p.derive(p.n - 1)
	switch {
	case len(c.ids) > 1:
		ids := slices.Delete(append(make([]uint32, 0, cap(c.ids)), c.ids...), pos, pos+1)
		if ci < len(p.spine) {
			np.ownSpine()
		}
		np.chunk(ci).set(ids, ix.exactBound(ids))
	case ci == len(p.spine):
		last := len(p.spine) - 1
		np.spine = p.spine[:last:last]
		np.tail.set(p.spine[last].ids, p.spine[last].max.Load())
	default:
		ix.rebuildSeq++
		np.spine = slices.Delete(slices.Clone(p.spine), ci, ci+1)
	}
	return np
}

// SetPopFunc installs the popularity source consulted when chunk bounds
// are computed (inserts, deletes). The serving layer points this at its
// dense page-stat table so the index never duplicates scores. Must be
// installed before the first Add; documents indexed earlier keep zero
// bounds until a raise.
func (ix *Index) SetPopFunc(f func(id uint32) float64) {
	ix.mu.Lock()
	ix.popOf = f
	ix.mu.Unlock()
}

// BoundRef names the chunk covering one document in one of its terms'
// posting lists: the term's dense id in the high 32 bits, the chunk
// index in the low 32. Add records one per distinct term; the chunk
// index stays valid while the index's rebuildSeq is unchanged.
type BoundRef uint64

func newBoundRef(term uint32, chunk int) BoundRef {
	return BoundRef(uint64(term)<<32 | uint64(uint32(chunk)))
}

func (r BoundRef) term() uint32 { return uint32(r >> 32) }
func (r BoundRef) chunk() int   { return int(uint32(r)) }

// Raise lifts the bounds covering document id to at least pop, through
// the document's record, under the mutation lock — serializing the
// raise with chunk copies is what makes it permanent. It re-resolves the
// record's chunk indexes by binary search only when rebuildSeq has moved
// since they were. It reports false when the document is not indexed
// (yet — replication followers apply frames before indexing, and the
// insert then computes the bound itself). Callers store the new
// popularity first.
func (ix *Index) Raise(id int, pop float64) bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	rec, ok := ix.docs[id]
	if !ok {
		return false
	}
	if rec.seq != ix.rebuildSeq {
		for i, r := range rec.refs {
			p := ix.terms.byID(r.term()).p.Load()
			rec.refs[i] = newBoundRef(r.term(), p.locate(uint32(id)))
		}
		rec.seq = ix.rebuildSeq
	}
	for _, r := range rec.refs {
		ix.terms.byID(r.term()).p.Load().chunk(r.chunk()).raise(pop)
	}
	return true
}

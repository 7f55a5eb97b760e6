// The term table: an open-addressed hash table from term to cell, plus a
// dense id directory from term id to the same cell.
//
// Concurrency. Every write happens under ix.mu; readers take no lock.
// The table is one generation of slots behind an atomic pointer: the
// writer fills a slot with a fully built cell (posting header stored
// first) and tombstones it when the term leaves, and at half load it
// copies the live cells into a fresh generation and swaps the pointer.
// A reader probes whichever generation it loaded; the writer never
// touches a generation again once it is swapped out, and cells are
// shared across generations, so posting updates through a cell reach
// readers of both. The directory is the page table's RCU pattern
// (serve/table.go): a chunk list grown by copying the chunk pointers,
// never the chunks.
package searchidx

import (
	"hash/maphash"
	"math/bits"
	"strings"
	"sync/atomic"
)

// termCell is one term's slot in the index: the current posting header,
// replaced whole by the (mutex-serialized) writer and loaded once per
// query by readers, plus the term and its dense id. A header is
// immutable once stored — an append writes only into ids capacity
// beyond every published length — so a loaded list is a sorted prefix
// paired with its own bounds. A cell is never reused for another term;
// only its id is, once the term has left.
type termCell struct {
	p    atomic.Pointer[posting]
	term string
	id   uint32
}

// tombstone fills the slot of a cell that left the table. Probes run on
// past it; its empty term matches no lookup, since terms are never empty.
var tombstone = new(termCell)

// termSlots is one generation of the open-addressed table (linear
// probing). Its length is fixed and at least twice the occupied slots,
// so every probe reaches a nil slot.
type termSlots []atomic.Pointer[termCell]

const (
	dirChunkBits = 10
	dirChunkSize = 1 << dirChunkBits
	dirChunkMask = dirChunkSize - 1
)

// dirChunk is one fixed block of the id directory; chunks are never
// freed or moved.
type dirChunk [dirChunkSize]atomic.Pointer[termCell]

// termTable maps terms to cells and term ids back to cells. Ids are
// dense: a term that leaves frees its id for the next new term, so a
// corpus churning through unique terms keeps both the table and the
// directory at the size of its live vocabulary.
type termTable struct {
	seed  maphash.Seed
	slots atomic.Pointer[termSlots]
	dir   atomic.Pointer[[]*dirChunk]

	// Writer-owned, guarded by ix.mu:
	used int      // occupied slots, tombstones included
	live int      // cells in the table: the distinct terms
	free []uint32 // ids of terms that left, reissued first
	next uint32   // lowest id never issued
}

func (t *termTable) init() {
	t.seed = maphash.MakeSeed()
	slots := make(termSlots, 16)
	t.slots.Store(&slots)
	t.dir.Store(new([]*dirChunk))
}

// home returns term's first probe position in a table of n slots.
func (t *termTable) home(term string, n int) int {
	hi, _ := bits.Mul64(maphash.String(t.seed, term), uint64(n))
	return int(hi)
}

// lookup returns term's live cell, or nil when no document carries the
// term. Lock-free.
func (t *termTable) lookup(term string) *termCell {
	s := *t.slots.Load()
	for i := t.home(term, len(s)); ; {
		c := s[i].Load()
		if c == nil || c.term == term {
			return c
		}
		if i++; i == len(s) {
			i = 0
		}
	}
}

// byID returns the cell holding term id, or nil when the id is free.
// Callers hold ix.mu and ask for the terms of an indexed document's
// refs, whose cells stay in the table while the document does.
func (t *termTable) byID(id uint32) *termCell {
	d := *t.dir.Load()
	ci := int(id >> dirChunkBits)
	if ci >= len(d) {
		return nil
	}
	return d[ci][id&dirChunkMask].Load()
}

// insert publishes a cell for term, which must be absent, holding p. The
// key is cloned so the table pins no document text. Callers hold ix.mu.
func (t *termTable) insert(term string, p *posting) *termCell {
	if (t.used+1)*2 > len(*t.slots.Load()) {
		t.resize()
	}
	c := &termCell{term: strings.Clone(term), id: t.issueID()}
	c.p.Store(p)
	t.setDir(c.id, c)
	s := *t.slots.Load()
	for i := t.home(term, len(s)); ; {
		switch s[i].Load() {
		case nil:
			t.used++
			fallthrough
		case tombstone:
			s[i].Store(c)
			t.live++
			return c
		}
		if i++; i == len(s) {
			i = 0
		}
	}
}

// remove tombstones c's slot and frees its id. Readers that already hold
// c keep reading its last posting. Callers hold ix.mu.
func (t *termTable) remove(c *termCell) {
	s := *t.slots.Load()
	for i := t.home(c.term, len(s)); ; {
		if s[i].Load() == c {
			s[i].Store(tombstone)
			break
		}
		if i++; i == len(s) {
			i = 0
		}
	}
	t.setDir(c.id, nil)
	t.free = append(t.free, c.id)
	t.live--
}

// resize copies the live cells into a fresh generation sized four slots
// per live term (plus slack), dropping the tombstones, and swaps it in:
// at least live+8 inserts pass before the next resize.
func (t *termTable) resize() {
	old := *t.slots.Load()
	fresh := make(termSlots, 4*t.live+16)
	for i := range old {
		c := old[i].Load()
		if c == nil || c == tombstone {
			continue
		}
		j := t.home(c.term, len(fresh))
		for fresh[j].Load() != nil {
			if j++; j == len(fresh) {
				j = 0
			}
		}
		fresh[j].Store(c)
	}
	t.used = t.live
	t.slots.Store(&fresh)
}

func (t *termTable) issueID() uint32 {
	if n := len(t.free); n > 0 {
		id := t.free[n-1]
		t.free = t.free[:n-1]
		return id
	}
	t.next++
	return t.next - 1
}

// setDir points directory entry id at c, growing the directory by one
// chunk when id is the first of a new chunk (ids are issued densely).
func (t *termTable) setDir(id uint32, c *termCell) {
	d := *t.dir.Load()
	ci := int(id >> dirChunkBits)
	if ci >= len(d) {
		grown := make([]*dirChunk, ci+1)
		copy(grown, d)
		for i := len(d); i <= ci; i++ {
			grown[i] = new(dirChunk)
		}
		t.dir.Store(&grown)
		d = grown
	}
	d[ci][id&dirChunkMask].Store(c)
}

// The dense page-stat table: every page gets a permanent slot at add
// time, indexed by its global birth sequence, in a chunked contiguous
// array shared by all shards. The search index keys its postings by the
// same sequence, so the cold-query scan — the path that used to chase a
// hash-map pointer per candidate — is a linear walk that indexes
// stats[slot] directly.
//
// Concurrency. The chunk directory is epoch-swapped (RCU): growth
// allocates a longer directory sharing every existing chunk pointer and
// publishes it atomically, so slots never move and a reader holding an
// older directory still observes all writes through the shared chunks.
// Each slot is written by exactly one goroutine — the apply loop of the
// shard its page hashes to — and read lock-free by every request; the
// per-field atomics make the single-writer/many-reader protocol exact
// under the race detector. meta is the publication gate: the writer
// stores it last (slotLive) on fill, and readers load it first, so a
// slot observed live has all fields in place.
//
// Slots are never reused while a process lives: birth sequences are
// monotone (shardState tracks the high-water mark so recovery restores
// that invariant) and a removed page's slot is tombstoned slotDead
// forever. Readers holding a stale sequence — a postings list or cache
// entry that outlived its page — therefore see a dead slot, never
// another page's stats.
package serve

import (
	"math"
	"sync"
	"sync/atomic"
)

const (
	chunkBits = 12
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1
)

// Slot lifecycle states, packed into meta's low bits. slotAware rides
// above them so awareness flips with a single store.
const (
	slotEmpty     uint32 = 0 // allocated, no page yet (add not applied)
	slotLive      uint32 = 1
	slotDead      uint32 = 2 // page removed; the slot is a tombstone
	slotStateMask uint32 = 3
	slotAware     uint32 = 4
)

// pageSlot is one page's dense serving state. The slot index IS the
// page's birth sequence, so Birth is not stored.
type pageSlot struct {
	// meta packs the slot state and the awareness flag — the only fields
	// the cold-query scan reads besides pop.
	meta     atomic.Uint32
	id       atomic.Int64
	pop      atomic.Uint64 // math.Float64bits
	imp      atomic.Int64
	clk      atomic.Int64
	firstImp atomic.Int64
}

// live reports whether m describes a servable page.
func liveMeta(m uint32) bool { return m&slotStateMask == slotLive }

// stat assembles an immutable Stat copy for the slot at seq. Only
// meaningful for live (or just-tombstoned) slots.
func (s *pageSlot) stat(seq int) Stat {
	m := s.meta.Load()
	return Stat{
		ID:            int(s.id.Load()),
		Popularity:    math.Float64frombits(s.pop.Load()),
		Birth:         seq,
		Aware:         m&slotAware != 0,
		Impressions:   s.imp.Load(),
		Clicks:        s.clk.Load(),
		firstImpNanos: s.firstImp.Load(),
	}
}

// pageChunk is one fixed block of slots; chunks are allocated zeroed
// (every slot slotEmpty) and never freed or moved.
type pageChunk [chunkSize]pageSlot

// pageTable is the corpus-wide slot array: an atomically published
// directory of chunk pointers. Reads are lock-free; growth takes mu.
type pageTable struct {
	mu     sync.Mutex
	chunks atomic.Pointer[[]*pageChunk]
}

func newPageTable() *pageTable {
	t := &pageTable{}
	empty := make([]*pageChunk, 0)
	t.chunks.Store(&empty)
	return t
}

// view returns the current chunk directory for a batch of lock-free
// lookups (one atomic load amortized over a whole candidate scan).
func (t *pageTable) view() []*pageChunk { return *t.chunks.Load() }

// slotAt returns the slot for seq from the given directory view, or nil
// when seq lies beyond it — a posting or cached sequence visible before
// its addition was applied (or a view loaded before the table grew).
func slotAt(view []*pageChunk, seq int) *pageSlot {
	ci := seq >> chunkBits
	if ci >= len(view) || seq < 0 {
		return nil
	}
	return &view[ci][seq&chunkMask]
}

// ensure grows the directory to cover seq and returns its slot. Growth
// copies only the directory (chunk pointers are shared with every prior
// view), so concurrent readers keep observing all slots, old and new.
// Callers are the apply loops and recovery goroutines; mutual exclusion
// across them is mu's job, not theirs.
func (t *pageTable) ensure(seq int) *pageSlot {
	if s := slotAt(t.view(), seq); s != nil {
		return s
	}
	t.mu.Lock()
	cur := t.view()
	need := (seq >> chunkBits) + 1
	if need > len(cur) {
		next := make([]*pageChunk, need)
		copy(next, cur)
		for i := len(cur); i < need; i++ {
			next[i] = new(pageChunk)
		}
		t.chunks.Store(&next)
		cur = next
	}
	t.mu.Unlock()
	return &cur[seq>>chunkBits][seq&chunkMask]
}

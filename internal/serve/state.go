// The pure event-application path. Every mutation of a shard's ranking
// state — live feedback, boot-time recovery, and offline log replay —
// flows through shardState.applyAdd / shardState.applyEvent and nothing
// else, so the three paths cannot drift: replaying the same records in
// the same order reproduces popularity, awareness, per-page counters and
// the first-impression timestamps bit for bit. The apply functions take
// their clock as an argument (the nanos stamped into the WAL record at
// group-commit time) instead of reading time.Now, which is what makes
// recovery and replay exact rather than approximate.
//
// Per-page stats live in the shared dense pageTable (table.go), indexed
// by birth sequence; the shard owns the mapping from page id to slot and
// is the slot's single writer. Serving-side telemetry that is NOT corpus
// state (per-slot counters, per-arm attribution) stays out of
// shardState: applyEvent returns an outcome describing what happened
// (applied? rank changed? a discovery? the pre-event first-impression
// stamp) and each caller credits its own telemetry from it — the live
// shard credits slot tables and arm tallies, recovery does the same to
// restore them exactly, and the counterfactual replay evaluator applies
// its own eligibility filter.
package serve

import (
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/rankengine"
	"repro/internal/searchidx"
	"repro/internal/store"
)

// AddRecord is the durable form of a page addition: everything needed to
// reconstruct the page's serving state and its search-index entry.
// Birth doubles as the page's dense slot in the page table and its
// document id in the search index.
type AddRecord struct {
	ID         int
	Text       string
	Popularity float64
	Birth      int
}

// outcome reports what applying one event did to shard state.
type outcome struct {
	// applied is false when the event was dropped (unknown page, bad
	// slot, negative counts).
	applied bool
	// rankChanged reports that the deterministic ranking moved (clicks
	// landed), so the shard snapshot needs republishing.
	rankChanged bool
	// discovery reports the event's first click promoted a zero-awareness
	// page into the deterministic ranking.
	discovery bool
	// priorFirstImp is the page's first-impression stamp from BEFORE this
	// event (0 = never shown), the baseline for time-to-first-click.
	priorFirstImp int64
}

// shardState is the event-sourced corpus state of one shard: exactly
// what snapshots persist and what the WAL reconstructs. A single
// goroutine owns all mutation; the page-table slots it writes are read
// lock-free by the serving paths.
type shardState struct {
	// table holds every page's dense stat slot, shared across shards
	// (each shard writes only the slots of pages that hash to it).
	table *pageTable

	// Owned exclusively by the applier:
	seqOf    map[int]int // page id -> slot (birth sequence), in apply order
	maxBirth int         // highest birth ever applied + 1 (seq watermark)
	treap    *rankengine.Treap
	pool     cowPool // zero-awareness page slots, copy-on-write (pool.go)
	// texts retains each page's indexed text for snapshotting (durable
	// corpora must be able to rebuild the search index at boot); nil when
	// the corpus is in-memory only.
	texts map[int]string

	// pages and zeroAware are the corpus-wide population counters the
	// state-dependent policies read; shared across shards by the owner.
	pages     *atomic.Int64
	zeroAware *atomic.Int64
	// zaPages counts this shard's pool-eligible pages, read lock-free by
	// the per-shard health surface.
	zaPages atomic.Int64

	// bounds and za, when set, are the serving corpus's search index
	// (whose posting-block popularity bounds this applier raises as
	// clicks land) and the zero-awareness sub-index (which mirrors the
	// promotion pool's membership). Nil for consumers without a query
	// path — the offline replay evaluator.
	bounds *searchidx.Index
	za     *searchidx.Index

	// impressions, clicks and dropped count feedback folded into (or
	// rejected by) this shard, read lock-free by Stats.
	impressions atomic.Uint64
	clicks      atomic.Uint64
	dropped     atomic.Uint64
}

// init prepares the state. retainText must be set for durable corpora.
// bounds and za may be nil (offline replay — no query path to serve).
func (st *shardState) init(treapSeed uint64, retainText bool, pages, zeroAware *atomic.Int64, table *pageTable, bounds, za *searchidx.Index) {
	st.table = table
	st.bounds = bounds
	st.za = za
	st.seqOf = make(map[int]int)
	st.treap = rankengine.New(treapSeed)
	st.pool.pos = make(map[int]int)
	if retainText {
		st.texts = make(map[int]string)
	}
	st.pages = pages
	st.zeroAware = zeroAware
}

// fillSlot publishes one page into its table slot: fields first, the
// live meta last, so a reader that observes the slot live sees every
// field in place.
func (st *shardState) fillSlot(seq int, id int, pop float64, imp, clk, firstImp int64, aware bool) *pageSlot {
	slot := st.table.ensure(seq)
	slot.id.Store(int64(id))
	slot.pop.Store(math.Float64bits(pop))
	slot.imp.Store(imp)
	slot.clk.Store(clk)
	slot.firstImp.Store(firstImp)
	m := slotLive
	if aware {
		m |= slotAware
	}
	slot.meta.Store(m)
	if seq >= st.maxBirth {
		st.maxBirth = seq + 1
	}
	return slot
}

// applyAdd folds one page addition into the state. A page with
// popularity zero starts in the zero-awareness promotion pool; positive
// popularity marks it already explored. Duplicates are dropped
// defensively (the index layer already rejects them in the live path).
func (st *shardState) applyAdd(a AddRecord) bool {
	if _, ok := st.seqOf[a.ID]; ok {
		st.dropped.Add(1)
		return false
	}
	aware := a.Popularity > 0
	st.placePage(store.PageRecord{ID: a.ID, Text: a.Text, Popularity: a.Popularity, Birth: a.Birth, Aware: aware})
	if aware && st.bounds != nil {
		// The slot is live (placePage above), so the popularity is
		// visible to the index's popularity source — raising now makes
		// the covering block bounds permanently sound for it. On a
		// replication follower the document is indexed after the frames
		// apply, so this is a no-op there and the insert computes the
		// exact bound itself.
		st.bounds.Raise(a.Birth, a.Popularity)
	}
	return true
}

// applyEvent folds one feedback event into the state at time nanos (the
// stamp carried by the event's WAL record; the live in-memory path
// stamps its current batch). Clicks increase popularity and — per the
// selective rule — a first click promotes the page out of the
// zero-awareness pool. Impressions alone only stamp first-impression
// time. Events with a slot below 1, negative counts or an unknown page
// are dropped.
func (st *shardState) applyEvent(e Event, nanos int64) outcome {
	seq, ok := st.seqOf[e.Page]
	if !ok {
		st.dropped.Add(1)
		return outcome{}
	}
	// A slot below 1 has no presented position to attribute the counts
	// to; dropping (rather than applying without telemetry) keeps the
	// slot table summing to ImpressionsApplied/ClicksApplied.
	if e.Impressions < 0 || e.Clicks < 0 || e.Slot < 1 {
		st.dropped.Add(1)
		return outcome{}
	}
	slot := slotAt(st.table.view(), seq)
	out := outcome{applied: true, priorFirstImp: slot.firstImp.Load()}
	if slot.imp.Load() == 0 && e.Impressions > 0 {
		slot.firstImp.Store(nanos)
	}
	slot.imp.Add(int64(e.Impressions))
	slot.clk.Add(int64(e.Clicks))
	st.impressions.Add(uint64(e.Impressions))
	if e.Clicks > 0 {
		pop := math.Float64frombits(slot.pop.Load()) + float64(e.Clicks)
		slot.pop.Store(math.Float64bits(pop))
		st.clicks.Add(uint64(e.Clicks))
		entry := rankengine.Entry{ID: e.Page, Popularity: pop, BirthDay: seq}
		if m := slot.meta.Load(); m&slotAware != 0 {
			st.treap.Update(entry)
		} else {
			// First click: the page is now explored — promote it out of
			// the zero-awareness pool into the deterministic ranking
			// (§4's selective rule).
			slot.meta.Store(m | slotAware)
			st.zeroAware.Add(-1)
			st.zaPages.Add(-1)
			st.pool.remove(seq)
			st.treap.Insert(entry)
			out.discovery = true
			if st.za != nil {
				// Shrink the zero-awareness sub-index: promoted pages rank
				// deterministically from here on.
				st.za.Delete(seq)
			}
		}
		if st.bounds != nil {
			// Raise AFTER the popularity store above: the ordering that
			// makes the raise permanent (see searchidx's soundness
			// contract). Until it lands a pruned reader may serve this
			// page at its pre-click rank — the same bounded staleness a
			// not-yet-applied event exhibits.
			st.bounds.Raise(seq, pop)
		}
		out.rankChanged = true
	}
	return out
}

// awareOf reports whether the shard holds the page and whether it has
// been promoted out of the zero-awareness pool. Applier-side read (the
// replay evaluator's pre-event eligibility check).
func (st *shardState) awareOf(id int) (exists, aware bool) {
	seq, ok := st.seqOf[id]
	if !ok {
		return false, false
	}
	return true, slotAt(st.table.view(), seq).meta.Load()&slotAware != 0
}

// applyRemove deletes one page from the shard state: its slot is
// tombstoned (never reused), and its treap or zero-awareness-pool
// membership and retained text are dropped. Removals of unknown pages
// count as dropped (the live path's index delete already filtered them;
// replayed logs may still carry them). Returns true when the servable
// view changed and needs republishing.
func (st *shardState) applyRemove(id int) bool {
	seq, ok := st.seqOf[id]
	if !ok {
		st.dropped.Add(1)
		return false
	}
	slot := slotAt(st.table.view(), seq)
	aware := slot.meta.Load()&slotAware != 0
	slot.meta.Store(slotDead)
	delete(st.seqOf, id)
	if st.texts != nil {
		delete(st.texts, id)
	}
	st.pages.Add(-1)
	if aware {
		st.treap.Delete(id)
	} else {
		st.zeroAware.Add(-1)
		st.zaPages.Add(-1)
		st.pool.remove(seq)
		if st.za != nil {
			// Usually a no-op: the leader tombstones the sub-index with
			// the main index when the removal is accepted. Replayed or
			// replicated removals land here first.
			st.za.Delete(seq)
		}
	}
	return true
}

// placePage puts one page into the state — its slot, the id map, the
// retained text, the population counters, and the treap or the
// zero-awareness pool (mirrored in the sub-index) — with the counters
// the record carries. A new page (applyAdd) and a page restored from a
// snapshot, whose history the snapshot already folded in, both enter
// here.
func (st *shardState) placePage(p store.PageRecord) {
	st.fillSlot(p.Birth, p.ID, p.Popularity, p.Impressions, p.Clicks, p.FirstImpNanos, p.Aware)
	st.seqOf[p.ID] = p.Birth
	if st.texts != nil {
		st.texts[p.ID] = p.Text
	}
	st.pages.Add(1)
	if p.Aware {
		st.treap.Insert(rankengine.Entry{ID: p.ID, Popularity: p.Popularity, BirthDay: p.Birth})
	} else {
		st.zeroAware.Add(1)
		st.zaPages.Add(1)
		st.pool.add(p.Birth)
		if st.za != nil {
			// The error return is vacuous here: Birth is unique, and the
			// record carries the text whenever a search index exists
			// (snapshots are written by durable corpora, which retain it).
			_ = st.za.Add(searchidx.Document{ID: p.Birth, Text: p.Text})
		}
	}
}

// pageRecords captures every page as snapshot records, sorted by birth
// so snapshot bytes (and restored iteration order) are deterministic.
func (st *shardState) pageRecords() []store.PageRecord {
	out := make([]store.PageRecord, 0, len(st.seqOf))
	view := st.table.view()
	for id, seq := range st.seqOf {
		s := slotAt(view, seq).stat(seq)
		rec := store.PageRecord{
			ID:            id,
			Popularity:    s.Popularity,
			Birth:         seq,
			Aware:         s.Aware,
			Impressions:   s.Impressions,
			Clicks:        s.Clicks,
			FirstImpNanos: s.firstImpNanos,
		}
		if st.texts != nil {
			rec.Text = st.texts[id]
		}
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Birth < out[j].Birth })
	return out
}

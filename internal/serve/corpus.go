package serve

import (
	"fmt"
	"math"
	"os"

	"repro/internal/randutil"
	"repro/internal/searchidx"
	"repro/internal/store"
	"repro/internal/wal"
)

// NewCorpus validates the configuration, builds a live corpus and starts
// one apply goroutine per shard. With Config.DataDir set it first
// recovers the previous state from disk — load each shard's newest
// snapshot, replay its WAL tail through the same apply path live
// feedback runs, rebuild the search index — and only then starts
// serving; Recovery reports what it found. Callers must Close it to
// stop the apply loops.
func NewCorpus(cfg Config) (*Corpus, error) {
	// Validate is the only gate: sizing fields, then the arms (the
	// declared ones or the implicit default arm) via buildArms, so a
	// pre-checked config cannot fail construction.
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	arms, err := buildArms(cfg)
	if err != nil {
		return nil, err
	}
	c := &Corpus{cfg: cfg, idx: searchidx.NewIndex(), zidx: searchidx.NewIndex(), arms: arms, durable: cfg.Durability.DataDir != "", table: newPageTable(), byID: make(map[int]int)}
	// The index's posting-block bounds read popularity straight from the
	// dense stat table: a document id IS its page's birth sequence, so a
	// bound recompute is a slot load away and scores are never duplicated.
	// Slots not yet live (the insert runs before the shard applies the
	// add) report zero; the apply loop raises the bound when it fills the
	// slot.
	c.idx.SetPopFunc(func(id uint32) float64 {
		if slot := slotAt(c.table.view(), int(id)); slot != nil && liveMeta(slot.meta.Load()) {
			return math.Float64frombits(slot.pop.Load())
		}
		return 0
	})
	c.nextBirth = make([]int, cfg.Shards)
	c.armIdx = make(map[string]*armState, len(arms))
	for _, a := range arms {
		c.armIdx[a.name] = a
	}
	c.qcache = newQueryCache(queryCacheEntries)
	if cfg.Limits.Provenance.enabled() {
		c.prov = newProvenanceGuard(cfg.Limits.Provenance)
	}
	c.scratch.New = func() any {
		return &reqScratch{
			rng:   randutil.New(cfg.Seed ^ (0x9e3779b97f4a7c15 * (1 + c.reqSeq.Add(1)))),
			heads: make([]int, cfg.Shards),
		}
	}
	if c.durable {
		d := cfg.Durability
		fsync, _ := wal.ParseFsyncMode(d.FsyncMode) // Validate already vetted it
		// One SyncPool for the whole corpus: the shard WALs live on the
		// same filesystem, so their group commits can share syncfs
		// barriers instead of serializing N fdatasyncs at the device.
		// (Injected logs bypass the pool — fault plans see every sync.)
		if err := os.MkdirAll(d.DataDir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		c.syncPool = wal.NewSyncPool(d.DataDir)
		st, err := store.Open(d.DataDir, storeMeta(cfg), wal.Options{Fsync: fsync, SegmentBytes: d.WALSegmentBytes, Inject: d.FaultInjector, SyncPool: c.syncPool})
		if err != nil {
			c.syncPool.Close()
			return nil, fmt.Errorf("serve: %w", err)
		}
		c.st = st
	}
	c.shards = make([]*shard, cfg.Shards)
	for i := range c.shards {
		sh := &shard{
			cfg:      cfg,
			id:       i,
			arms:     c.armIdx,
			armOrder: arms,
			tallies:  make([]armTally, len(arms)),
			ch:       make(chan applyReq, cfg.QueueLen),
			killed:   &c.killed,
		}
		sh.shardState.init(cfg.Seed+uint64(i)*2654435761, c.durable, &c.pages, &c.zeroAware, c.table, c.idx, c.zidx)
		if c.durable {
			sh.st = c.st.Shard(i)
		}
		sh.snap.Store(&snapshot{})
		c.shards[i] = sh
	}
	if c.durable {
		if err := c.recover(); err != nil {
			c.st.Close()
			c.syncPool.Close()
			return nil, err
		}
	}
	for _, sh := range c.shards {
		sh := sh
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			sh.run()
		}()
	}
	return c, nil
}

// storeMeta renders the corpus shape (shard count plus the declared
// arms' policy specs) for meta.json — the baseline the offline replay
// evaluator swaps policies against.
func storeMeta(cfg Config) store.Meta {
	m := store.Meta{Shards: cfg.Shards}
	if len(cfg.Arms) == 0 {
		m.Arms = []store.ArmMeta{{Name: DefaultArmName, Spec: cfg.Policy.Compact()}}
		return m
	}
	for _, a := range cfg.Arms {
		m.Arms = append(m.Arms, store.ArmMeta{Name: a.Name, Spec: a.Policy.Compact()})
	}
	return m
}

// Shards returns the shard count.
func (c *Corpus) Shards() int { return len(c.shards) }

func (c *Corpus) shardFor(id int) *shard {
	return c.shards[ShardIndex(id, len(c.shards))]
}

// Add indexes a document and enqueues it on its shard. A page with
// popularity zero starts in the zero-awareness promotion pool; positive
// popularity marks it already explored. The page becomes servable once
// its shard applies the addition (Sync forces that).
//
// The search index keys the document by its birth sequence — the page's
// dense stat slot — so query retrieval streams slot indexes directly;
// byID records the pairing for the by-id read paths.
//
// Births are allocated per shard with stride Shards (shard si's k-th
// page is born at k*Shards+si): deterministic from the shard's own add
// order alone, so a replication follower applying the shard leader's
// WAL records assigns the exact same dense slots, and leaders of
// different shards on different nodes can never collide.
func (c *Corpus) Add(id int, text string, popularity float64) error {
	if popularity < 0 {
		return fmt.Errorf("serve: negative popularity %v for page %d", popularity, id)
	}
	// NaN would break the treap's order and, compared as bits, win every
	// bound raise; +Inf would pin its blocks' bounds for good.
	if math.IsNaN(popularity) || math.IsInf(popularity, 1) {
		return fmt.Errorf("serve: non-finite popularity %v for page %d", popularity, id)
	}
	sh := c.shardFor(id)
	if sh.notLeader.Load() {
		return ErrNotLeader
	}
	c.idxMu.Lock()
	if _, ok := c.birthOf(id); ok {
		c.idxMu.Unlock()
		return fmt.Errorf("serve: page %d already indexed", id)
	}
	birth := c.nextBirth[sh.id]*len(c.shards) + sh.id
	if err := c.indexPage(id, birth, text); err != nil {
		c.idxMu.Unlock()
		return fmt.Errorf("serve: page %d: %w", id, err)
	}
	c.idxMu.Unlock()
	sh.ch <- applyReq{add: []AddRecord{{ID: id, Text: text, Popularity: popularity, Birth: birth}}}
	return nil
}

// Feedback partitions the events by shard and enqueues them on the
// single-writer apply loops. In-memory it returns once the events are
// queued, blocking only when a shard queue is full (backpressure); on a
// durable corpus it returns only after every event has been
// group-committed to the WAL and applied, so a nil return — an
// acknowledgement, e.g. the HTTP 202 — is a promise the events survive
// a crash. A non-nil error means the WAL commit failed and the batch
// was NOT applied (never a silent ack); the shard stays serving and
// reports unhealthy until a commit succeeds. On a multi-shard corpus a
// failed batch may have applied on shards whose commits succeeded, so
// retrying a failed batch is at-least-once. Events for unknown pages
// are counted and dropped at apply time.
func (c *Corpus) Feedback(events []Event) error {
	return c.feedback(events, false, nil)
}

// TryFeedback is the admission-controlled Feedback: it reserves a queue
// credit on every target shard before enqueuing anything, and returns
// ErrOverloaded — with NOTHING enqueued — when any reservation fails.
// A credit spans admission to the apply loop's acknowledgment — after
// the commit on a durable corpus, after the apply in memory — so queued
// and in-flight batches together stay within the bound. The HTTP layer
// maps ErrOverloaded to 429 + Retry-After; any other error is a
// durability failure as in Feedback.
func (c *Corpus) TryFeedback(events []Event) error {
	return c.feedback(events, true, nil)
}

// feedback is Feedback, or TryFeedback with admission. When lsns is
// non-nil (one entry per shard) and the corpus is durable, a nil return
// leaves in lsns[si] the end LSN of the group commit that made the
// batch durable on shard si, and 0 for shards the batch did not touch:
// every one of its events there is logged at or below it.
func (c *Corpus) feedback(events []Event, admission bool, lsns []uint64) error {
	clear(lsns)
	if len(events) == 0 {
		return nil
	}
	// Partition by shard: a counting pass sizes each shard's batch, so
	// the batches are carved (capacity-capped, hence disjoint for good)
	// out of ONE backing array instead of growing a slice per shard. The
	// provenance checks run per event as the batches are filled —
	// admitted feedback only from here on.
	batches := make([][]Event, len(c.shards))
	counts := make([]int, len(c.shards))
	for i := range events {
		counts[ShardIndex(events[i].Page, len(c.shards))]++
	}
	backing := make([]Event, len(events))
	for si, n := range counts {
		batches[si], backing = backing[:0:n], backing[n:]
	}
	for _, e := range events {
		if c.prov != nil && e.Clicks > 0 {
			_, aware := c.pageAware(e.Page)
			e = c.prov.admit(e, aware)
		}
		si := ShardIndex(e.Page, len(c.shards))
		batches[si] = append(batches[si], e)
	}
	// A follower shard's state may only advance through replicated
	// frames; refuse before reserving credits or enqueuing anything, so
	// the client can re-route the whole batch to the leader.
	for si, b := range batches {
		if len(b) > 0 && c.shards[si].notLeader.Load() {
			return ErrNotLeader
		}
	}
	if admission {
		// All-or-nothing credit reservation: either every target shard
		// has queue room and the whole batch is enqueued, or nothing is
		// and the client gets one 429 for the batch.
		acquired := make([]*shard, 0, len(c.shards))
		for si, b := range batches {
			if len(b) == 0 {
				continue
			}
			sh := c.shards[si]
			if !sh.tryAcquire() {
				for _, a := range acquired {
					a.credits.Add(-1)
				}
				c.rejected.Add(1)
				return ErrOverloaded
			}
			acquired = append(acquired, sh)
		}
	}
	var acks []chan error
	for si, b := range batches {
		if len(b) == 0 {
			continue
		}
		req := applyReq{events: b, credited: admission}
		if c.durable {
			req.done = make(chan error, 1)
			acks = append(acks, req.done)
			if lsns != nil {
				req.lsn = &lsns[si]
			}
		}
		c.shards[si].ch <- req
	}
	var err error
	for _, d := range acks {
		if e := <-d; e != nil && err == nil {
			err = e
		}
	}
	return err
}

// liveSlot resolves a page id to its live table slot and birth
// sequence; slot is nil when the page is unknown, removed, or its
// addition has not applied yet.
func (c *Corpus) liveSlot(id int) (*pageSlot, int) {
	seq, ok := c.birthOf(id)
	if !ok {
		return nil, 0
	}
	slot := slotAt(c.table.view(), seq)
	if slot == nil || !liveMeta(slot.meta.Load()) {
		return nil, 0
	}
	return slot, seq
}

// pageAware reports whether the page exists and has been promoted out
// of the zero-awareness pool.
func (c *Corpus) pageAware(id int) (exists, aware bool) {
	if slot, _ := c.liveSlot(id); slot != nil {
		return true, slot.meta.Load()&slotAware != 0
	}
	return false, false
}

// Remove deletes a page: it leaves the search index immediately (the
// cells of its terms are rewritten, then the index epoch advances, so a
// query that loads the epoch after Remove returns no longer matches it)
// and the shard-state removal is enqueued on its apply loop, logged like
// every other mutation. Returns false when the page is not indexed.
func (c *Corpus) Remove(id int) bool {
	if c.shardFor(id).notLeader.Load() {
		return false
	}
	c.idxMu.Lock()
	ok := c.unindexPage(id)
	c.idxMu.Unlock()
	if ok {
		c.shardFor(id).ch <- applyReq{remove: []int{id}}
	}
	return ok
}

// birthOf returns the birth sequence of an indexed page; ok is false
// when the page is unknown or was removed.
func (c *Corpus) birthOf(id int) (birth int, ok bool) {
	c.byIDMu.RLock()
	birth, ok = c.byID[id]
	c.byIDMu.RUnlock()
	return birth, ok
}

// indexPage is the one way a page enters the corpus index — local adds,
// boot recovery, replicated adds and replica snapshot installs all go
// through it: the document is indexed under its birth, byID records the
// pairing, and the birth watermarks move past it, keyed by its stride
// residue so a future local allocation can never collide with it (for
// a local add, exactly one step of its shard's counter). Caller holds
// idxMu.
func (c *Corpus) indexPage(id, birth int, text string) error {
	if err := c.idx.Add(searchidx.Document{ID: birth, Text: text}); err != nil {
		return err
	}
	c.byIDMu.Lock()
	c.byID[id] = birth
	c.byIDMu.Unlock()
	if birth+1 > c.seq {
		c.seq = birth + 1
	}
	s := len(c.shards)
	if k := birth/s + 1; k > c.nextBirth[birth%s] {
		c.nextBirth[birth%s] = k
	}
	return nil
}

// unindexPage is the one way a page leaves the corpus index — local and
// replicated removals alike. The zero-awareness sub-index is tombstoned
// in the same critical section as the main index, so a pool-eligible
// page stops matching pool enumeration the moment it stops matching
// deterministic retrieval (a no-op for promoted pages, which left the
// sub-index at first click); the byID entry goes. Reports false when the
// page is not indexed. Caller holds idxMu.
func (c *Corpus) unindexPage(id int) bool {
	birth, ok := c.birthOf(id)
	if !ok {
		return false
	}
	c.idx.Delete(birth)
	c.zidx.Delete(birth)
	c.byIDMu.Lock()
	delete(c.byID, id)
	c.byIDMu.Unlock()
	return true
}

// Sync blocks until every feedback event, addition and removal enqueued
// before the call has been applied and published.
func (c *Corpus) Sync() {
	done := make([]chan error, len(c.shards))
	for i, sh := range c.shards {
		done[i] = make(chan error, 1)
		sh.ch <- applyReq{done: done[i]}
	}
	for _, d := range done {
		<-d
	}
}

// Close stops the apply loops after draining their queues. A durable
// corpus writes a final snapshot per shard before its WAL closes, so the
// next boot recovers instantly. The corpus remains readable (Rank, Top,
// Page, Stats) but must not receive further Add, Feedback or Sync calls.
func (c *Corpus) Close() {
	for _, sh := range c.shards {
		close(sh.ch)
	}
	c.wg.Wait()
	if c.st != nil {
		// The shards already closed their own WALs; this releases the
		// directory lock so another corpus (or the replay tool) may open
		// the data dir.
		c.st.Close()
		c.syncPool.Close()
	}
}

// Kill is the SIGKILL-equivalent shutdown for crash testing: Close with
// the killed flag set first, so the apply loops nack the group in hand,
// abandon whatever was still queued and write no final snapshot —
// exactly the state a crashed process leaves behind; the directory lock
// goes as a dead process's flock would. Recovery must reconstruct
// everything acknowledged before the kill. Like Close, it must not race
// Add, Feedback or Sync.
func (c *Corpus) Kill() {
	c.killed.Store(true)
	c.Close()
}

// Page returns a page's current serving state.
func (c *Corpus) Page(id int) (Stat, bool) {
	if slot, seq := c.liveSlot(id); slot != nil {
		s := slot.stat(seq)
		s.ID = id
		return s, true
	}
	return Stat{}, false
}

// Stats aggregates corpus-wide accounting. It scans the dense page
// table, so it is O(slots) — telemetry, not a hot path.
func (c *Corpus) Stats() Stats {
	var s Stats
	s.Arms = c.Arms()
	s.QueryCacheHits = c.cacheHits.Load()
	s.QueryCacheMisses = c.cacheMisses.Load()
	if c.qcache != nil {
		s.QueryCacheEntries = c.qcache.len()
	}
	s.FeedbackRejected = c.rejected.Load()
	s.BlocksSkipped = c.blocksSkipped.Load()
	s.CandidatesPruned = c.candidatesPruned.Load()
	s.ZACandidates = c.zaCandidates.Load()
	if c.prov != nil {
		s.ProvenanceHeld = c.prov.held.Load()
		s.ProvenanceCapped = c.prov.capped.Load()
	}
	s.Epochs = make([]uint64, len(c.shards))
	for i, sh := range c.shards {
		s.Epochs[i] = sh.snap.Load().epoch
		s.ImpressionsApplied += sh.impressions.Load()
		s.ClicksApplied += sh.clicks.Load()
		s.Dropped += sh.dropped.Load()
		s.WALFailures += sh.walFailures.Load()
	}
	for _, chunk := range c.table.view() {
		for i := range chunk {
			slot := &chunk[i]
			m := slot.meta.Load()
			if !liveMeta(m) {
				continue
			}
			s.Pages++
			s.TotalPopularity += math.Float64frombits(slot.pop.Load())
			if m&slotAware != 0 {
				s.Aware++
			} else {
				s.ZeroAware++
			}
		}
	}
	return s
}

// SlotTelemetry returns (impressions, clicks) for the 1-based result
// position, counting only feedback actually applied — the per-slot log
// position-bias measurement needs. The table is kept per shard (so it
// snapshots consistently with each shard's WAL position) and summed
// here. Slots beyond SlotTrack fold into the SlotTrack bucket;
// out-of-range slots return zeros.
func (c *Corpus) SlotTelemetry(slot int) (impressions, clicks uint64) {
	if slot < 1 || slot > SlotTrack {
		return 0, 0
	}
	for _, sh := range c.shards {
		impressions += sh.slots.imp[slot-1].Load()
		clicks += sh.slots.clk[slot-1].Load()
	}
	return impressions, clicks
}

// Epoch returns the sum of the shard snapshot epochs: a monotone counter
// that advances whenever any shard republishes its top-list.
func (c *Corpus) Epoch() uint64 {
	var e uint64
	for _, sh := range c.shards {
		e += sh.snap.Load().epoch
	}
	return e
}

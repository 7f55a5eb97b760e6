// Durability under the serving layer: boot-time crash recovery, periodic
// per-shard snapshots with log truncation, the SIGKILL-equivalent
// shutdown path, and the health surface (/healthz) that reports queue
// depth and WAL lag.
//
// Recovery per shard is: load the newest readable snapshot into the
// shard's event-sourced state, replay the WAL tail above its LSN through
// applyRecord (the apply loop runs replicated frames through it too),
// then verify nothing is missing (a WAL whose first retained record is
// above snapshotLSN+1 means truncated history without a covering
// snapshot — unrecoverable, fail loudly rather than serve silently
// wrong popularity). The search index is rebuilt from the recovered
// pages in birth order, so postings, birth sequence and query results
// come back exactly as a never-crashed corpus would serve them.
package serve

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/store"
	"repro/internal/wal"
)

// snapshotBytesTrigger snapshots a shard early when its un-snapshotted
// WAL bytes exceed this, bounding both recovery time and disk growth
// independent of the time-based interval.
const snapshotBytesTrigger = 8 << 20

// ShardRecovery describes one shard's boot-time recovery.
type ShardRecovery struct {
	// SnapshotLSN is the LSN of the snapshot the shard booted from
	// (0 = no snapshot, replayed from the log's start).
	SnapshotLSN uint64
	// RecordsReplayed is how many WAL records were re-applied on top.
	RecordsReplayed uint64
	// TornBytes is how many trailing bytes of the shard's WAL were
	// dropped as a torn write.
	TornBytes int64
	// WALReset reports that the surviving log ended before the covering
	// snapshot (unsynced tail lost under FsyncNone, or deleted log
	// files) and was reset to continue from the snapshot position.
	WALReset bool
}

// RecoveryInfo summarizes what NewCorpus recovered from the data dir.
type RecoveryInfo struct {
	// Durable is false when the corpus runs in-memory (no DataDir); all
	// other fields are then zero.
	Durable bool
	// Pages is the corpus population after recovery.
	Pages int
	// RecordsReplayed totals the WAL records re-applied across shards.
	RecordsReplayed uint64
	// TornBytes totals the torn trailing bytes dropped across shards.
	TornBytes int64
	// Duration is the wall time recovery took.
	Duration time.Duration
	// Shards holds the per-shard detail.
	Shards []ShardRecovery
}

// Recovery reports what NewCorpus found in the data dir at boot.
func (c *Corpus) Recovery() RecoveryInfo { return c.recovery }

// recover rebuilds every shard from its snapshot + WAL tail (in
// parallel; shards are independent), then rebuilds the search index from
// the recovered pages.
func (c *Corpus) recover() error {
	start := time.Now()
	c.recovery = RecoveryInfo{Durable: true, Shards: make([]ShardRecovery, len(c.shards))}
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for i, sh := range c.shards {
		i, sh := i, sh
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.recovery.Shards[i], errs[i] = sh.recoverFromStore(i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for _, sr := range c.recovery.Shards {
		c.recovery.RecordsReplayed += sr.RecordsReplayed
		c.recovery.TornBytes += sr.TornBytes
	}
	if err := c.rebuildIndex(); err != nil {
		return err
	}
	c.recovery.Pages = int(c.pages.Load())
	c.recovery.Duration = time.Since(start)
	return nil
}

// recoverFromStore rebuilds one shard: snapshot, WAL tail, publish.
func (sh *shard) recoverFromStore(idx int) (ShardRecovery, error) {
	fail := func(format string, args ...any) (ShardRecovery, error) {
		return ShardRecovery{}, fmt.Errorf("serve: shard %d unrecoverable: %s", idx, fmt.Sprintf(format, args...))
	}
	info := sh.st.Recover
	rec := ShardRecovery{TornBytes: info.TornBytes}
	snap, err := sh.st.LatestSnapshot()
	if err != nil {
		return fail("%v", err)
	}
	from := uint64(1)
	if snap != nil {
		sh.restoreSnapshot(snap)
		from = snap.LSN + 1
		rec.SnapshotLSN = snap.LSN
	}
	if info.LastLSN >= info.FirstLSN && info.FirstLSN > from {
		return fail("WAL starts at lsn %d but recovery needs lsn %d — history was truncated without a covering snapshot", info.FirstLSN, from)
	}
	if info.LastLSN+1 < from {
		// The log ends BEFORE the snapshot: every surviving record is
		// already folded into the snapshot, which happens when an
		// unsynced tail is lost to power failure under FsyncNone, or when
		// log files were deleted. The snapshot alone is the complete
		// state, so reset the log to continue from it rather than
		// refusing to boot forever; the discarded history (if KeepLog
		// wanted it) is noted in the recovery info.
		if err := sh.st.Log.ResetTo(from); err != nil {
			return fail("resetting WAL behind snapshot lsn %d: %v", from-1, err)
		}
		rec.WALReset = true
	}
	err = sh.st.Log.Replay(from, func(lsn uint64, payload []byte) error {
		r, err := decodeWALRecord(payload)
		if err != nil {
			return fmt.Errorf("serve: shard %d lsn %d: %w", idx, lsn, err)
		}
		sh.applyRecord(r)
		sh.appliedLSN.Store(lsn)
		sh.walLag.Add(int64(len(payload)) + wal.FrameOverhead)
		rec.RecordsReplayed++
		return nil
	})
	if err != nil {
		return ShardRecovery{}, err
	}
	sh.committedLSN.Store(sh.appliedLSN.Load())
	sh.lastSnap = time.Now()
	sh.publish()
	// A recovered shard whose replayed tail already exceeds the byte
	// trigger snapshots immediately: maybeSnapshot only runs at batch
	// boundaries, so an idle shard would otherwise replay the same long
	// tail on every crash until traffic happens to arrive.
	if sh.walLag.Load() >= snapshotBytesTrigger {
		sh.writeSnapshot()
	}
	return rec, nil
}

// restoreSnapshot loads a snapshot's state: pages into the
// event-sourced shard state, counters, the slot table and the per-arm
// tallies (matched by name; an arm no longer declared simply drops its
// historical telemetry).
func (sh *shard) restoreSnapshot(snap *store.Snapshot) {
	for _, p := range snap.Pages {
		sh.placePage(p)
	}
	sh.impressions.Store(snap.Impressions)
	sh.clicks.Store(snap.Clicks)
	sh.dropped.Store(snap.Dropped)
	for _, sl := range snap.Slots {
		if sl.Slot >= 1 && sl.Slot <= SlotTrack {
			sh.slots.imp[sl.Slot-1].Store(sl.Impressions)
			sh.slots.clk[sl.Slot-1].Store(sl.Clicks)
		}
	}
	for _, a := range snap.Arms {
		arm := sh.arms[a.Name]
		if arm == nil {
			continue
		}
		t := &sh.tallies[arm.idx]
		t.impressions.Store(a.Impressions)
		t.clicks.Store(a.Clicks)
		t.discoveries.Store(a.Discoveries)
		t.ttfcSumNanos.Store(a.TTFCSumNanos)
		t.ttfcCount.Store(a.TTFCCount)
	}
	sh.snapLSN.Store(snap.LSN)
	sh.appliedLSN.Store(snap.LSN)
}

// rebuildIndex re-indexes every recovered page in birth order, restores
// the id→slot pairings, and advances the corpus birth sequence past the
// highest slot any shard ever applied — removed pages included, so a
// restarted process never reuses a tombstoned slot.
func (c *Corpus) rebuildIndex() error {
	type docRec struct {
		id, birth int
		text      string
	}
	var docs []docRec
	for _, sh := range c.shards {
		for id, birth := range sh.seqOf {
			docs = append(docs, docRec{id: id, birth: birth, text: sh.texts[id]})
		}
		if sh.maxBirth > c.seq {
			c.seq = sh.maxBirth
		}
	}
	sort.Slice(docs, func(i, j int) bool { return docs[i].birth < docs[j].birth })
	for _, d := range docs {
		// indexPage also raises the strided allocation counters past
		// every recovered birth (legacy globally-sequential births
		// included): a future Add may never re-issue a slot already
		// taken.
		if err := c.indexPage(d.id, d.birth, d.text); err != nil {
			return fmt.Errorf("serve: rebuilding index: %w", err)
		}
	}
	return nil
}

// snapshotRecord captures the shard's current state as a store
// snapshot, consistent because only the apply loop calls it between
// batches.
func (sh *shard) snapshotRecord() *store.Snapshot {
	snap := &store.Snapshot{
		LSN:         sh.appliedLSN.Load(),
		Pages:       sh.pageRecords(),
		Impressions: sh.impressions.Load(),
		Clicks:      sh.clicks.Load(),
		Dropped:     sh.dropped.Load(),
	}
	for slot := 1; slot <= SlotTrack; slot++ {
		imp, clk := sh.slots.imp[slot-1].Load(), sh.slots.clk[slot-1].Load()
		if imp > 0 || clk > 0 {
			snap.Slots = append(snap.Slots, store.SlotRecord{Slot: slot, Impressions: imp, Clicks: clk})
		}
	}
	for _, arm := range sh.armOrder {
		t := &sh.tallies[arm.idx]
		snap.Arms = append(snap.Arms, store.ArmTallyRecord{
			Name:         arm.name,
			Impressions:  t.impressions.Load(),
			Clicks:       t.clicks.Load(),
			Discoveries:  t.discoveries.Load(),
			TTFCSumNanos: t.ttfcSumNanos.Load(),
			TTFCCount:    t.ttfcCount.Load(),
		})
	}
	return snap
}

// snapshotRetryBackoff debounces retries after a FAILED snapshot: a
// persistently failing disk must not turn every feedback batch into a
// doomed full-state encode.
const snapshotRetryBackoff = 5 * time.Second

// maybeSnapshot persists the shard's state when the configured interval
// elapsed or the un-snapshotted WAL grew past the byte trigger. Called
// by the apply loop after each committed group (a shard without a log
// has nothing to snapshot); a negative SnapshotInterval disables
// periodic snapshots entirely (Close still writes a final one).
// lastSnap is the last ATTEMPT (success or failure), so both triggers
// are debounced against a failing disk.
func (sh *shard) maybeSnapshot() {
	if sh.st == nil || sh.cfg.Durability.SnapshotInterval < 0 {
		return
	}
	if sh.appliedLSN.Load() == sh.snapLSN.Load() {
		return
	}
	since := time.Since(sh.lastSnap)
	if since < sh.cfg.Durability.SnapshotInterval &&
		(sh.walLag.Load() < snapshotBytesTrigger || since < snapshotRetryBackoff) {
		return
	}
	sh.writeSnapshot()
}

// writeSnapshot persists the state; a failure leaves the WAL
// authoritative (recovery replays it), so the shard keeps serving and
// retries after a backoff while Health reports the failure count, the
// last error and the growing lag.
func (sh *shard) writeSnapshot() {
	snap := sh.snapshotRecord()
	sh.lastSnap = time.Now()
	if err := sh.st.WriteSnapshot(snap, sh.cfg.Durability.KeepLog); err != nil {
		sh.snapFailures.Add(1)
		msg := err.Error()
		sh.snapErr.Store(&msg)
		return
	}
	sh.snapLSN.Store(snap.LSN)
	sh.walLag.Store(0)
}

// shutdown finishes a shard's apply loop; an in-memory shard has nothing
// to finish. A clean Close writes a final snapshot so the next boot
// recovers instantly; the Kill path skips it, leaving snapshot + WAL
// tail exactly as a crash would.
func (sh *shard) shutdown() {
	if sh.st == nil {
		return
	}
	if !sh.killed.Load() && sh.appliedLSN.Load() != sh.snapLSN.Load() {
		sh.writeSnapshot()
	}
	_ = sh.st.Log.Close()
}

// ShardHealth is one shard's health row.
type ShardHealth struct {
	// QueueDepth and QueueCap describe the feedback queue (batches
	// waiting / capacity).
	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`
	// WALLagBytes is how many log bytes are not yet covered by a
	// snapshot — the work a crash right now would replay at boot. It
	// counts on-disk bytes (payload plus frame header) on every path, so
	// a leader and its follower at the same LSN report the same lag.
	WALLagBytes int64 `json:"wal_lag_bytes"`
	// SnapshotLSN and AppliedLSN are the shard's last snapshotted and
	// last applied record positions (both 0 on an in-memory corpus).
	SnapshotLSN uint64 `json:"snapshot_lsn"`
	AppliedLSN  uint64 `json:"applied_lsn"`
	// SnapshotFailures counts failed snapshot attempts;
	// LastSnapshotError is the most recent failure's message (empty when
	// snapshots are healthy). A non-zero count with growing WALLagBytes
	// means the shard cannot persist and recovery times are climbing.
	SnapshotFailures  uint64 `json:"snapshot_failures,omitempty"`
	LastSnapshotError string `json:"last_snapshot_error,omitempty"`
	// WALFailures counts failed WAL commits; LastWALError is the most
	// recent failure's message, cleared on the next successful commit.
	// While LastWALError is set the shard cannot make feedback durable:
	// every batch is being nacked, and the corpus reports unhealthy.
	WALFailures  uint64 `json:"wal_failures,omitempty"`
	LastWALError string `json:"last_wal_error,omitempty"`
	// ZAPages counts the shard's pool-eligible (zero-awareness) pages:
	// the promotion-pool population the cold-query sub-index enumerates.
	ZAPages int64 `json:"za_pages"`
	// Write-path telemetry over the WAL's recent commit window (durable
	// corpora only): the commit/fsync rate, how many records one group
	// commit covers (the group size the serial commit loop achieves), and
	// commit latency.
	FsyncsPerSec      float64 `json:"fsyncs_per_sec,omitempty"`
	MeanCommitRecords float64 `json:"mean_commit_records,omitempty"`
	P99CommitRecords  int     `json:"p99_commit_records,omitempty"`
	MeanCommitMicros  int64   `json:"mean_commit_micros,omitempty"`
	P99CommitMicros   int64   `json:"p99_commit_micros,omitempty"`
}

// HealthReport is the corpus readiness surface behind GET /healthz.
type HealthReport struct {
	// Ready is true once recovery completed and the apply loops serve; a
	// corpus handed to callers is always ready (the daemon reports
	// recovery-in-progress itself while NewCorpus runs).
	Ready bool `json:"ready"`
	// Durable reports whether a DataDir backs the corpus.
	Durable bool `json:"durable"`
	// FsyncMode is the WAL durability mode in effect ("" in-memory).
	FsyncMode string `json:"fsync_mode,omitempty"`
	// WALFailing reports that at least one shard's last WAL commit
	// failed: feedback to it is being nacked, /healthz returns 503.
	WALFailing bool `json:"wal_failing"`
	// WALLagBytes totals the per-shard lag.
	WALLagBytes int64         `json:"wal_lag_bytes"`
	Shards      []ShardHealth `json:"shards"`
	// Replication is the cluster layer's report — roles, fencing epochs,
	// follower lag, heartbeat age — when this corpus is part of one
	// (SetReplicationHealth); nil on a standalone corpus.
	Replication *ReplicationHealth `json:"replication,omitempty"`
}

// WALCounters are process-lifetime WAL group-commit totals summed
// across shards: how many group commits happened, how many durability
// barriers (fsyncs) they issued, and how many records they covered.
// Deltas between two samples give exact rates over an interval — the
// bench harness computes syncs/s and records per commit this way.
type WALCounters struct {
	Commits uint64 `json:"commits"`
	Syncs   uint64 `json:"syncs"`
	Records uint64 `json:"records"`
}

// WALCounters sums each shard's WAL commit counters (all zero on an
// in-memory corpus).
func (c *Corpus) WALCounters() WALCounters {
	var t WALCounters
	if !c.durable {
		return t
	}
	for _, sh := range c.shards {
		ls := sh.st.Log.Stats()
		t.Commits += ls.Commits
		t.Syncs += ls.Syncs
		t.Records += ls.Records
	}
	return t
}

// Health reports queue depths and WAL lag per shard, read lock-free.
func (c *Corpus) Health() HealthReport {
	h := HealthReport{Ready: true, Durable: c.durable}
	if c.durable {
		// Validate already vetted the mode string; round-tripping through
		// the wal package keeps the default mapping in one place.
		mode, _ := wal.ParseFsyncMode(c.cfg.Durability.FsyncMode)
		h.FsyncMode = mode.String()
	}
	for _, sh := range c.shards {
		row := ShardHealth{
			QueueDepth:       len(sh.ch),
			QueueCap:         cap(sh.ch),
			ZAPages:          sh.zaPages.Load(),
			WALLagBytes:      sh.walLag.Load(),
			SnapshotLSN:      sh.snapLSN.Load(),
			AppliedLSN:       sh.appliedLSN.Load(),
			SnapshotFailures: sh.snapFailures.Load(),
			WALFailures:      sh.walFailures.Load(),
		}
		if msg := sh.snapErr.Load(); msg != nil {
			row.LastSnapshotError = *msg
		}
		if msg := sh.walErr.Load(); msg != nil {
			row.LastWALError = *msg
			h.WALFailing = true
		}
		if c.durable {
			ls := sh.st.Log.Stats()
			row.FsyncsPerSec = ls.CommitsPerSec
			row.MeanCommitRecords = ls.MeanBatchRecords
			row.P99CommitRecords = ls.P99BatchRecords
			row.MeanCommitMicros = ls.MeanCommitNanos / 1e3
			row.P99CommitMicros = ls.P99CommitNanos / 1e3
		}
		h.WALLagBytes += row.WALLagBytes
		h.Shards = append(h.Shards, row)
	}
	if fn := c.replHealth.Load(); fn != nil {
		h.Replication = (*fn)()
	}
	return h
}

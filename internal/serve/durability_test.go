package serve

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/policy"
)

// durableConfig is the shared shape of the crash tests: two arms so arm
// telemetry recovery is exercised, a single-digit seed for determinism.
func durableConfig(dir string) Config {
	return Config{
		Shards:     3,
		Seed:       7,
		Durability: Durability{DataDir: dir},
		Arms: []Arm{
			{Name: "control", Policy: policy.Spec{Rule: policy.RuleDeterministic}, Weight: 1},
			{Name: "treatment", Policy: policy.Spec{Rule: policy.RuleSelective, K: 1, R: 0.3}, Weight: 1},
		},
	}
}

// seedDurable populates a corpus with established pages plus
// zero-awareness gems and drives feedback through both arms: impressions
// on everything, discovering clicks on two gems under the treatment arm,
// reinforcing clicks on an established page under control.
func seedDurable(t *testing.T, c *Corpus) {
	t.Helper()
	for i := 0; i < 30; i++ {
		pop := float64(30 - i)
		if i%5 == 0 {
			pop = 0 // gems: 0,5,10,15,20,25
		}
		if err := c.Add(i, "durable topic page", pop); err != nil {
			t.Fatal(err)
		}
	}
	c.Sync()
	// First impressions (stamps firstImpNanos), then discovering clicks.
	var imps []Event
	for i := 0; i < 30; i++ {
		imps = append(imps, Event{Page: i, Slot: i%7 + 1, Impressions: 1, Arm: "treatment"})
	}
	c.Feedback(imps)
	c.Feedback([]Event{
		{Page: 5, Slot: 3, Impressions: 1, Clicks: 1, Arm: "treatment"},  // discovery with TTFC sample
		{Page: 10, Slot: 8, Impressions: 1, Clicks: 1, Arm: "treatment"}, // discovery with TTFC sample
		{Page: 1, Slot: 1, Impressions: 2, Clicks: 2, Arm: "control"},    // reinforcement
		{Page: 999, Slot: 1, Impressions: 1},                             // dropped: unknown page
		{Page: 2, Slot: 0, Impressions: 1},                               // dropped: bad slot
	})
	c.Sync()
}

// corpusFingerprint captures everything recovery must reproduce exactly:
// corpus stats (minus serving-run-local fields), the deterministic
// top-list, every page's full stat (including the unexported
// first-impression stamp), slot telemetry and arm telemetry.
type corpusFingerprint struct {
	stats Stats
	top   []Stat
	pages map[int]Stat
	slots map[int][2]uint64
	arms  []ArmReport
	// zaDocs and za pin the zero-awareness sub-index: its size and the
	// exact pool-eligible candidate list for the seed corpus's topic.
	// Promotions shrink it, removals tombstone it; recovery must rebuild
	// the shrunken membership, not the original one.
	zaDocs int
	za     []int
}

func fingerprint(c *Corpus) corpusFingerprint {
	fp := corpusFingerprint{
		stats:  c.Stats(),
		top:    c.Top(20),
		pages:  map[int]Stat{},
		slots:  map[int][2]uint64{},
		arms:   c.Arms(),
		zaDocs: c.zidx.Len(),
		za:     c.zidx.Retrieve("durable topic"),
	}
	// Epochs, cache counters and per-arm request counts are serving-run
	// state, not event-sourced corpus state: a restarted process starts
	// them fresh.
	fp.stats.Epochs = nil
	fp.stats.QueryCacheHits, fp.stats.QueryCacheMisses, fp.stats.QueryCacheEntries = 0, 0, 0
	fp.stats.BlocksSkipped, fp.stats.CandidatesPruned, fp.stats.ZACandidates = 0, 0, 0
	fp.stats.Arms = nil
	for i := range fp.arms {
		fp.arms[i].Requests = 0
	}
	for id := 0; id < 1000; id++ {
		if st, ok := c.Page(id); ok {
			fp.pages[id] = st
		}
	}
	for slot := 1; slot <= SlotTrack; slot++ {
		if imp, clk := c.SlotTelemetry(slot); imp > 0 || clk > 0 {
			fp.slots[slot] = [2]uint64{imp, clk}
		}
	}
	return fp
}

func assertFingerprintEqual(t *testing.T, want, got corpusFingerprint) {
	t.Helper()
	if !reflect.DeepEqual(want.stats, got.stats) {
		t.Errorf("stats:\n pre-crash %+v\n recovered %+v", want.stats, got.stats)
	}
	if !reflect.DeepEqual(want.top, got.top) {
		t.Errorf("top:\n pre-crash %+v\n recovered %+v", want.top, got.top)
	}
	if !reflect.DeepEqual(want.pages, got.pages) {
		t.Errorf("pages differ:\n pre-crash %+v\n recovered %+v", want.pages, got.pages)
	}
	if !reflect.DeepEqual(want.slots, got.slots) {
		t.Errorf("slot telemetry:\n pre-crash %v\n recovered %v", want.slots, got.slots)
	}
	if !reflect.DeepEqual(want.arms, got.arms) {
		t.Errorf("arm telemetry:\n pre-crash %+v\n recovered %+v", want.arms, got.arms)
	}
	if want.zaDocs != got.zaDocs || !reflect.DeepEqual(want.za, got.za) {
		t.Errorf("zero-awareness sub-index:\n pre-crash %d docs %v\n recovered %d docs %v",
			want.zaDocs, want.za, got.zaDocs, got.za)
	}
}

// TestKillRestartRoundTrip is the crash-recovery acceptance test: a
// SIGKILL-equivalent shutdown (no final snapshot, queues abandoned),
// restart from the DataDir, and field-exact equality of popularity,
// awareness, per-page counters, slot telemetry and arm telemetry.
func TestKillRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c := newTestCorpusNoClose(t, durableConfig(dir))
	seedDurable(t, c)
	want := fingerprint(c)
	if want.stats.Dropped != 2 || want.stats.ZeroAware != 4 || want.stats.ClicksApplied != 4 {
		t.Fatalf("pre-crash shape unexpected: %+v", want.stats)
	}
	if want.arms[1].Discoveries != 2 || want.arms[1].MeanTTFCMillis <= 0 {
		t.Fatalf("pre-crash treatment arm unexpected: %+v", want.arms[1])
	}
	c.Kill()

	r := newTestCorpusNoClose(t, durableConfig(dir))
	info := r.Recovery()
	if !info.Durable || info.Pages != 30 {
		t.Fatalf("recovery info = %+v, want durable with 30 pages", info)
	}
	if info.RecordsReplayed == 0 {
		t.Fatalf("kill skipped the final snapshot, so recovery must replay the WAL; info = %+v", info)
	}
	// Kill is Close's shutdown with the killed flag set: no shard may
	// have written its final snapshot, and every shard replays its log.
	for i, sr := range info.Shards {
		if sr.SnapshotLSN != 0 || sr.RecordsReplayed == 0 {
			t.Fatalf("shard %d after kill: %+v, want no snapshot and a replayed log", i, sr)
		}
	}
	assertFingerprintEqual(t, want, fingerprint(r))

	// The rebuilt index serves queries over the recovered corpus.
	res, err := r.RankSeeded("durable topic", 10, 3)
	if err != nil || len(res) != 10 {
		t.Fatalf("query after recovery: %d results, err %v", len(res), err)
	}
	// And the recovered corpus keeps accepting writes.
	if err := r.Add(100, "durable topic newcomer", 0); err != nil {
		t.Fatal(err)
	}
	r.Sync() // the pool joins on apply, not on Add's return
	zaBefore := r.zidx.Len()
	r.Feedback([]Event{{Page: 100, Slot: 2, Impressions: 1, Clicks: 1, Arm: "treatment"}})
	r.Sync()
	if st, ok := r.Page(100); !ok || !st.Aware || st.Popularity != 1 {
		t.Fatalf("post-recovery write: %+v ok=%v", st, ok)
	}
	// The first click promoted the newcomer out of the zero-awareness
	// pool, so the sub-index must have shrunk with it...
	if got := r.zidx.Len(); got != zaBefore-1 {
		t.Fatalf("zero-awareness sub-index: %d docs after promotion, want %d", got, zaBefore-1)
	}
	if ids := r.zidx.Retrieve("newcomer"); len(ids) != 0 {
		t.Fatalf("promoted page still pool-eligible: %v", ids)
	}
	// ...and a second kill/restart must reproduce the shrunken pool, not
	// resurrect the promoted page into it.
	want2 := fingerprint(r)
	r.Kill()
	r2 := newTestCorpus(t, durableConfig(dir))
	assertFingerprintEqual(t, want2, fingerprint(r2))
	if ids := r2.zidx.Retrieve("newcomer"); len(ids) != 0 {
		t.Fatalf("promotion lost across restart; pool-eligible: %v", ids)
	}
}

// TestCleanCloseRecoversFromSnapshotOnly asserts the clean-shutdown
// path: Close writes a final snapshot, so reopening replays nothing and
// still reproduces the exact state.
func TestCleanCloseRecoversFromSnapshotOnly(t *testing.T) {
	dir := t.TempDir()
	c := newTestCorpusNoClose(t, durableConfig(dir))
	seedDurable(t, c)
	want := fingerprint(c)
	c.Close()

	r := newTestCorpus(t, durableConfig(dir))
	info := r.Recovery()
	if info.RecordsReplayed != 0 {
		t.Fatalf("clean close must leave a covering snapshot; recovery replayed %d records", info.RecordsReplayed)
	}
	if len(info.Shards) != 3 {
		t.Fatalf("recovery info = %+v, want 3 shards", info)
	}
	for i, sr := range info.Shards {
		if sr.SnapshotLSN == 0 {
			t.Fatalf("shard %d after close: %+v, want a final snapshot", i, sr)
		}
	}
	assertFingerprintEqual(t, want, fingerprint(r))
}

// TestTornWriteRecovery truncates the WAL mid-record and asserts
// recovery drops only the torn suffix: every event before the tear
// survives, the torn one vanishes, and the corpus reports the torn
// bytes.
func TestTornWriteRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Shards: 1, Seed: 3, Durability: Durability{DataDir: dir}}
	c := newTestCorpusNoClose(t, cfg)
	for i := 0; i < 10; i++ {
		if err := c.Add(i, "torn topic page", float64(10-i)); err != nil {
			t.Fatal(err)
		}
	}
	c.Sync()
	// One event per Feedback call: sequential WAL records in call order.
	for i := 0; i < 10; i++ {
		c.Feedback([]Event{{Page: i, Slot: 1, Impressions: 1, Clicks: 1}})
	}
	c.Kill()

	segs, err := filepath.Glob(filepath.Join(dir, "shard-000", "wal", "wal-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one WAL segment, got %v (%v)", segs, err)
	}
	fi, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Cut into the final record (the click on page 9).
	if err := os.Truncate(segs[0], fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	r := newTestCorpus(t, cfg)
	info := r.Recovery()
	if info.TornBytes <= 0 {
		t.Fatalf("recovery info = %+v, want torn bytes > 0", info)
	}
	st := r.Stats()
	if st.ClicksApplied != 9 || st.ImpressionsApplied != 9 {
		t.Fatalf("recovered %d clicks / %d impressions, want 9/9 (only the torn final event dropped)", st.ClicksApplied, st.ImpressionsApplied)
	}
	for i := 0; i < 9; i++ {
		if p, ok := r.Page(i); !ok || p.Clicks != 1 {
			t.Fatalf("page %d = %+v ok=%v, want the pre-tear click intact", i, p, ok)
		}
	}
	if p, _ := r.Page(9); p.Clicks != 0 || p.Popularity != 1 {
		t.Fatalf("page 9 = %+v, want torn click dropped (original popularity only)", p)
	}
}

// TestMissingLogResetsFromSnapshot removes the WAL segments behind a
// snapshot-bearing data dir (the shape an unsynced tail lost under
// FsyncNone leaves too): the snapshot strictly supersedes the surviving
// log, so recovery must boot from it, note the reset, and keep
// accepting writes — permanent refusal would brick every FsyncNone
// deployment that ever loses power.
func TestMissingLogResetsFromSnapshot(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Shards: 1, Seed: 3, Durability: Durability{DataDir: dir}}
	c := newTestCorpusNoClose(t, cfg)
	for i := 0; i < 5; i++ {
		if err := c.Add(i, "gap topic page", float64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	c.Sync()
	c.Feedback([]Event{{Page: 0, Slot: 1, Impressions: 1, Clicks: 1}})
	c.Close() // final snapshot covers everything
	segs, err := filepath.Glob(filepath.Join(dir, "shard-000", "wal", "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments found: %v (%v)", segs, err)
	}
	for _, s := range segs {
		if err := os.Remove(s); err != nil {
			t.Fatal(err)
		}
	}
	r := newTestCorpus(t, cfg)
	info := r.Recovery()
	if len(info.Shards) != 1 || !info.Shards[0].WALReset {
		t.Fatalf("recovery info = %+v, want a noted WAL reset", info)
	}
	if st := r.Stats(); st.Pages != 5 || st.ClicksApplied != 1 {
		t.Fatalf("snapshot state incomplete after reset: %+v", st)
	}
	// The reset log must accept new history at the snapshot position.
	r.Feedback([]Event{{Page: 1, Slot: 1, Impressions: 1, Clicks: 1}})
	r.Sync()
	if p, _ := r.Page(1); p.Clicks != 1 {
		t.Fatalf("post-reset write lost: %+v", p)
	}
}

// TestTruncatedHistoryWithoutSnapshotUnrecoverable deletes every
// snapshot behind a truncated (multi-segment, rotated) WAL: the log's
// retained prefix starts past the missing snapshot's coverage, and
// recovery must refuse with a clear error instead of serving silently
// wrong popularity.
func TestTruncatedHistoryWithoutSnapshotUnrecoverable(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Shards: 1, Seed: 3, Durability: Durability{DataDir: dir, WALSegmentBytes: 64}}
	boot := func(events int) {
		c := newTestCorpusNoClose(t, cfg)
		if _, ok := c.Page(0); !ok {
			for i := 0; i < 5; i++ {
				if err := c.Add(i, "rotating topic page", float64(i+1)); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < events; i++ {
			c.Feedback([]Event{{Page: i % 5, Slot: 1, Impressions: 1, Clicks: 1}})
		}
		c.Close()
	}
	boot(20) // snapshot #1; no truncation yet (first snapshot keeps full log)
	boot(20) // snapshot #2; truncates whole segments behind snapshot #1
	snaps, err := filepath.Glob(filepath.Join(dir, "shard-000", "snap-*.snap"))
	if err != nil || len(snaps) < 2 {
		t.Fatalf("want 2 retained snapshots, got %v (%v)", snaps, err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "shard-000", "wal", "wal-*.seg"))
	if len(segs) < 2 {
		t.Fatalf("fixture needs rotated segments, got %v", segs)
	}
	for _, s := range snaps {
		if err := os.Remove(s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := NewCorpus(cfg); err == nil {
		t.Fatal("recovery with truncated history and no covering snapshot must fail")
	}
}

// TestSnapshotLossFallsBackToFullReplay deletes every snapshot while the
// full WAL is retained (truncation never removes the active segment):
// recovery must fall back to replaying the complete history and land on
// the identical state.
func TestSnapshotLossFallsBackToFullReplay(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	c := newTestCorpusNoClose(t, cfg)
	seedDurable(t, c)
	want := fingerprint(c)
	c.Close()
	snaps, err := filepath.Glob(filepath.Join(dir, "shard-*", "snap-*.snap"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no snapshots found: %v (%v)", snaps, err)
	}
	for _, s := range snaps {
		if err := os.Remove(s); err != nil {
			t.Fatal(err)
		}
	}
	r := newTestCorpus(t, cfg)
	if info := r.Recovery(); info.RecordsReplayed == 0 {
		t.Fatalf("recovery info = %+v, want a full-WAL replay", info)
	}
	assertFingerprintEqual(t, want, fingerprint(r))
}

// TestShardCountMismatchRefused pins the misconfiguration guard: pages
// hash by shard count, so reopening with a different count must refuse.
func TestShardCountMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	c := newTestCorpusNoClose(t, Config{Shards: 2, Durability: Durability{DataDir: dir}})
	c.Close()
	if _, err := NewCorpus(Config{Shards: 4, Durability: Durability{DataDir: dir}}); err == nil {
		t.Fatal("reopening with a different shard count must fail")
	}
}

// TestHealthReport covers the /healthz data source: durability flags,
// WAL lag accounting and snapshot positions.
func TestHealthReport(t *testing.T) {
	mem := newTestCorpus(t, Config{Shards: 2})
	h := mem.Health()
	if !h.Ready || h.Durable || h.FsyncMode != "" || len(h.Shards) != 2 {
		t.Fatalf("in-memory health = %+v", h)
	}

	dir := t.TempDir()
	// Disable periodic snapshots so lag visibly accumulates.
	c := newTestCorpusNoClose(t, Config{Shards: 2, Durability: Durability{DataDir: dir, SnapshotInterval: -1}})
	defer c.Close()
	if err := c.Add(1, "health topic page", 5); err != nil {
		t.Fatal(err)
	}
	c.Feedback([]Event{{Page: 1, Slot: 1, Impressions: 1, Clicks: 1}})
	c.Sync()
	h = c.Health()
	if !h.Ready || !h.Durable || h.FsyncMode != "batch" {
		t.Fatalf("durable health = %+v", h)
	}
	if h.WALLagBytes <= 0 {
		t.Fatalf("WAL lag = %d, want > 0 with snapshots disabled", h.WALLagBytes)
	}
	var applied uint64
	for _, sh := range h.Shards {
		applied += sh.AppliedLSN
		if sh.QueueCap == 0 {
			t.Fatalf("shard health missing queue cap: %+v", sh)
		}
	}
	if applied == 0 {
		t.Fatalf("no shard reports applied LSNs: %+v", h.Shards)
	}
}

// newTestCorpusNoClose builds a corpus the test closes (or kills)
// itself.
func newTestCorpusNoClose(t *testing.T, cfg Config) *Corpus {
	t.Helper()
	c, err := NewCorpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestFeedbackReportsCommitLSN pins the LSNs a held 202 waits on
// (Server.HoldFeedbackAcks): batches from concurrent writers interleave
// in each shard's group commits, and for every batch each touched
// shard's reported LSN covers every one of the batch's events in that
// shard's WAL and is no later than the shard's committed position. A
// shard the batch did not touch reports 0. (Re-reading CommittedLSN
// after the commit returned instead waits on groups the batch does not
// depend on.)
func TestFeedbackReportsCommitLSN(t *testing.T) {
	c := newTestCorpus(t, durableConfig(t.TempDir()))
	const pages, writers, batches = 24, 4, 30
	for i := 0; i < pages; i++ {
		if err := c.Add(i, "lsn page", 1); err != nil {
			t.Fatal(err)
		}
	}
	c.Sync()
	shards := len(c.shards)
	// Batch b's events carry b+1 impressions, which tells them apart in
	// the WAL.
	reported := make([][]uint64, writers*batches)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < batches; k++ {
				b := w*batches + k
				var events []Event
				for j := 0; j < 1+b%5; j++ {
					events = append(events, Event{Page: (b*7 + j*5) % pages, Slot: 1, Impressions: b + 1})
				}
				lsns := make([]uint64, shards)
				if err := c.feedback(events, false, lsns); err != nil {
					t.Error(err)
					return
				}
				for si, lsn := range lsns {
					touched := slices.ContainsFunc(events, func(e Event) bool { return c.ShardOf(e.Page) == si })
					if committed := c.CommittedLSN(si); touched != (lsn > 0) || lsn > committed {
						t.Errorf("batch %d: shard %d (touched %v) reports LSN %d, committed %d", b, si, touched, lsn, committed)
						return
					}
				}
				reported[b] = lsns
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	seen := 0
	for si := 0; si < shards; si++ {
		r := c.WALReader(si, c.WALFirstLSN(si))
		defer r.Close()
		for {
			lsn, payload, ok, err := r.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			rec, err := decodeWALRecord(payload)
			if err != nil {
				t.Fatal(err)
			}
			if rec.kind != recKindEvent {
				continue
			}
			seen++
			if b := rec.event.Impressions - 1; lsn > reported[b][si] {
				t.Fatalf("batch %d's event for page %d is at LSN %d of shard %d, past the reported %d", b, rec.event.Page, lsn, si, reported[b][si])
			}
		}
	}
	want := 0
	for b := 0; b < writers*batches; b++ {
		want += 1 + b%5
	}
	if seen != want {
		t.Fatalf("the WALs hold %d event records, want %d", seen, want)
	}
}

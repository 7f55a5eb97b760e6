package serve

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/policy"
	"repro/internal/randutil"
)

// applyConfig is the shape the apply-loop tests share: two arms so arm
// attribution runs. Publishing draws nothing, so how requests group
// into commits cannot change what a seeded rank serves.
func applyConfig() Config {
	return Config{
		Shards: 3,
		Seed:   17,
		Arms: []Arm{
			{Name: "control", Policy: policy.Spec{Rule: policy.RuleDeterministic}, Weight: 1},
			{Name: "treatment", Policy: policy.Spec{Rule: policy.RuleSelective, K: 1, R: 0.3}, Weight: 1},
		},
	}
}

// applyOps drives one seeded op sequence into every corpus alike: adds
// at zero and positive popularity, feedback batches (clicks,
// impressions, bad slots, negative counts, unknown pages and arms),
// removes and Syncs. New pages take ids from base up.
func applyOps(t *testing.T, seed uint64, base int, corpora ...*Corpus) {
	t.Helper()
	rng := randutil.New(seed)
	arms := []string{"control", "treatment", "", "ghost"}
	var live []int
	next := base
	for op := 0; op < 800; op++ {
		switch k := rng.Intn(20); {
		case k < 6:
			pop := 0.0
			if rng.Intn(2) == 0 {
				pop = float64(1 + rng.Intn(40))
			}
			text := fmt.Sprintf("durable topic page%d t%d", next, rng.Intn(5))
			for _, c := range corpora {
				if err := c.Add(next, text, pop); err != nil {
					t.Fatal(err)
				}
			}
			live = append(live, next)
			next++
		case k < 16:
			events := make([]Event, 1+rng.Intn(6))
			for i := range events {
				e := Event{
					Page:        base + rng.Intn(next-base+3), // past next: unknown pages
					Slot:        rng.Intn(SlotTrack + 2),
					Impressions: 1 + rng.Intn(3),
					Arm:         arms[rng.Intn(len(arms))],
				}
				if rng.Intn(3) == 0 {
					e.Clicks = 1 + rng.Intn(2)
				}
				if rng.Intn(25) == 0 {
					e.Impressions = -1
				}
				events[i] = e
			}
			for _, c := range corpora {
				if err := c.Feedback(events); err != nil {
					t.Fatal(err)
				}
			}
		case k < 18:
			if len(live) == 0 {
				continue
			}
			i := rng.Intn(len(live))
			id := live[i]
			live = append(live[:i], live[i+1:]...)
			for _, c := range corpora {
				if !c.Remove(id) {
					t.Fatalf("remove of live page %d refused", id)
				}
			}
		default:
			for _, c := range corpora {
				c.Sync()
			}
		}
	}
	for _, c := range corpora {
		c.Sync()
	}
}

// applyFingerprint is the durability fingerprint without its clock
// stamps: the first-impression times and the time-to-first-click means
// derived from them are wall-clock reads taken when each group applied,
// so two corpora fed the same ops agree on everything else only.
func applyFingerprint(c *Corpus) corpusFingerprint {
	fp := fingerprint(c)
	for id, st := range fp.pages {
		st.firstImpNanos = 0
		fp.pages[id] = st
	}
	for i := range fp.arms {
		fp.arms[i].MeanTTFCMillis = 0
	}
	return fp
}

// TestInMemoryApplyMatchesDurable: an in-memory corpus and a durable
// (FsyncMode "none") corpus of the same Config, fed one seeded op
// sequence, end in the same state — stats, top list, every page, slot
// and arm telemetry, the zero-awareness sub-index — and serve the same
// rankings at fixed seeds. Both run the one apply loop; only the log
// steps differ.
func TestInMemoryApplyMatchesDurable(t *testing.T) {
	mem := newTestCorpus(t, applyConfig())
	dcfg := applyConfig()
	dcfg.Durability = Durability{DataDir: t.TempDir(), FsyncMode: "none"}
	dur := newTestCorpus(t, dcfg)
	applyOps(t, 29, 0, mem, dur)

	want, got := applyFingerprint(mem), applyFingerprint(dur)
	if want.stats.Pages == 0 || want.stats.Dropped == 0 || want.stats.ClicksApplied == 0 || want.stats.ZeroAware == 0 {
		t.Fatalf("op sequence too tame to compare: %+v", want.stats)
	}
	assertFingerprintEqual(t, want, got)
	for _, q := range []string{"", "durable topic", "t3"} {
		for seed := uint64(1); seed <= 4; seed++ {
			a, errA := mem.RankSeeded(q, 12, seed)
			b, errB := dur.RankSeeded(q, 12, seed)
			if errA != nil || errB != nil {
				t.Fatalf("rank %q seed %d: %v / %v", q, seed, errA, errB)
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("rank %q seed %d:\n in-memory %+v\n durable   %+v", q, seed, a, b)
			}
		}
	}
}

// replicate ships every frame the leader's shard committed past the
// follower's position through ApplyReplicated, as a replication
// session would.
func replicate(t *testing.T, leader, follower *Corpus, shard int) {
	t.Helper()
	if err := follower.ApplyReplicated(shard, walFrames(t, leader, shard, follower.CommittedLSN(shard)+1)); err != nil {
		t.Fatal(err)
	}
}

// walFrames reads every committed frame of the shard's log from LSN from.
func walFrames(t *testing.T, c *Corpus, shard int, from uint64) []ReplFrame {
	t.Helper()
	r := c.WALReader(shard, from)
	defer r.Close()
	var frames []ReplFrame
	for {
		lsn, payload, ok, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return frames
		}
		frames = append(frames, ReplFrame{LSN: lsn, Payload: bytes.Clone(payload)})
	}
}

// TestApplyReplicatedTrimsDuplicatesAndRefusesGaps pins the rules by
// which a follower's log grows: a batch that overlaps the log is trimmed
// to its new frames, so every LSN is logged once and the follower's log
// stays byte-identical to the leader's; a batch that starts past the
// log's end, or skips an LSN, is refused and logs nothing.
func TestApplyReplicatedTrimsDuplicatesAndRefusesGaps(t *testing.T) {
	cfg := applyConfig()
	cfg.Durability = Durability{FsyncMode: "none", SnapshotInterval: -1}
	lcfg, fcfg := cfg, cfg
	lcfg.Durability.DataDir = t.TempDir()
	fcfg.Durability.DataDir = t.TempDir()
	leader := newTestCorpus(t, lcfg)
	follower := newTestCorpus(t, fcfg)
	for i := 0; i < follower.Shards(); i++ {
		follower.SetShardWritable(i, false)
	}
	applyOps(t, 41, 0, leader)
	const shard = 0
	src := walFrames(t, leader, shard, 1)
	if len(src) < 17 {
		t.Fatalf("leader shard %d logged %d frames, want at least 17", shard, len(src))
	}
	logIs := func(phase string, want uint64) {
		t.Helper()
		if got := follower.CommittedLSN(shard); got != want {
			t.Fatalf("%s: committed lsn %d, want %d", phase, got, want)
		}
		got := walFrames(t, follower, shard, 1)
		if uint64(len(got)) != want {
			t.Fatalf("%s: follower logged %d frames, want %d", phase, len(got), want)
		}
		for i, f := range got {
			if f.LSN != uint64(i+1) || !bytes.Equal(f.Payload, src[i].Payload) {
				t.Fatalf("%s: follower frame %d is lsn %d %x, leader's is lsn %d %x", phase, i, f.LSN, f.Payload, src[i].LSN, src[i].Payload)
			}
		}
	}

	if err := follower.ApplyReplicated(shard, src[0:10]); err != nil {
		t.Fatal(err)
	}
	logIs("ship 1-10", 10)
	if err := follower.ApplyReplicated(shard, src[5:14]); err != nil {
		t.Fatalf("re-ship 6-14: %v", err)
	}
	logIs("re-ship 6-14", 14)

	err := follower.ApplyReplicated(shard, src[16:17])
	if err == nil || !strings.Contains(err.Error(), "does not extend") {
		t.Fatalf("a batch starting at 17 on a log ending at 14: error %v, want \"does not extend\"", err)
	}
	logIs("batch at 17", 14)
	if err := follower.ApplyReplicated(shard, []ReplFrame{src[14], src[16]}); err == nil {
		t.Fatal("a batch of LSNs 15 and 17 was accepted")
	}
	logIs("batch of 15 and 17", 14)

	if err := follower.ApplyReplicated(shard, src[14:17]); err != nil {
		t.Fatalf("ship 15-17 after the refusals: %v", err)
	}
	logIs("ship 15-17", 17)
}

// TestWALLagAgreesAcrossPaths: WALLagBytes counts on-disk bytes (payload
// plus frame header) on every path that grows a log — the leader's
// in-place records, a follower's replicated appends and boot replay —
// so a leader and its follower at the same LSN report the same lag, and
// a restarted shard reports the lag it had.
func TestWALLagAgreesAcrossPaths(t *testing.T) {
	cfg := applyConfig()
	cfg.Durability = Durability{FsyncMode: "none", SnapshotInterval: -1}
	lcfg, fcfg := cfg, cfg
	lcfg.Durability.DataDir = t.TempDir()
	fcfg.Durability.DataDir = t.TempDir()
	leader := newTestCorpusNoClose(t, lcfg)
	follower := newTestCorpus(t, fcfg)
	for i := 0; i < follower.Shards(); i++ {
		follower.SetShardWritable(i, false)
	}
	check := func(phase string) {
		t.Helper()
		for i := 0; i < leader.Shards(); i++ {
			replicate(t, leader, follower, i)
			lh, fh := leader.Health(), follower.Health()
			if l, f := leader.CommittedLSN(i), follower.CommittedLSN(i); l != f || l == 0 {
				t.Fatalf("%s shard %d: committed lsn leader %d follower %d", phase, i, l, f)
			}
			if l, f := lh.Shards[i].WALLagBytes, fh.Shards[i].WALLagBytes; l != f {
				t.Errorf("%s shard %d at lsn %d: WAL lag leader %d B, follower %d B", phase, i, leader.CommittedLSN(i), l, f)
			}
		}
	}
	applyOps(t, 31, 0, leader)
	check("first batch")
	applyOps(t, 37, 10000, leader)
	check("second batch")

	before := leader.Health()
	leader.Kill()
	restarted := newTestCorpus(t, lcfg)
	if restarted.Recovery().RecordsReplayed == 0 {
		t.Fatal("no snapshot was taken, so recovery must replay the log")
	}
	after := restarted.Health()
	for i := range before.Shards {
		if b, a := before.Shards[i].WALLagBytes, after.Shards[i].WALLagBytes; b != a {
			t.Errorf("shard %d: WAL lag %d B before the kill, %d B after replay", i, b, a)
		}
	}
}

// Replication support under the serving layer: the hooks internal/cluster
// uses to turn each shard's WAL into a shipped log. A leader's apply loop
// tells Config.OnCommit of every durable group commit; a shipper thread
// per follower reads the new frames with one WALReader that follows the
// log and streams them, and followers feed them back in through
// ApplyReplicated — raw payloads appended to the follower's own WAL
// (byte-identical frames, same LSNs), committed, and applied through
// applyRecord, the path boot recovery replays through. A follower that
// is too far behind a truncated log instead receives a store snapshot
// and installs it with InstallReplicaSnapshot.
//
// The serving layer stays cluster-agnostic: it knows "this shard takes
// local writes" (leader) or "this shard advances only via replicated
// frames" (follower, ErrNotLeader on local writes), and it publishes
// whatever replication health the cluster layer reports. Epochs,
// heartbeats, elections and routing live in internal/cluster.
package serve

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/store"
	"repro/internal/wal"
)

// ErrNotLeader is returned for local writes (Add, Feedback, Remove) to a
// shard currently acting as a replication follower. The HTTP layer maps
// it to 503 so clients re-resolve and retry against the leader.
var ErrNotLeader = errors.New("serve: shard is a replication follower, not the leader")

// errKilled nacks requests drained by a killed (crash-simulated) corpus.
var errKilled = errors.New("serve: corpus killed")

// ReplFrame is one replicated WAL record: the LSN the leader assigned
// and the raw record payload (the bytes inside the frame, without the
// length/CRC header — the follower's own Append re-frames identically).
type ReplFrame struct {
	LSN     uint64
	Payload []byte
	rec     walRecord // decoded by ApplyReplicated before enqueue
}

// ShardIndex is the page-to-shard hash every router must agree on: the
// corpus partitions by it, and the cluster front door routes by it.
func ShardIndex(page, shards int) int { return int(uint(page) % uint(shards)) }

// CommittedLSN returns the shard's last durable WAL position: the
// position replication ships up to, and the ack a follower reports.
func (c *Corpus) CommittedLSN(shard int) uint64 {
	return c.shards[shard].committedLSN.Load()
}

// Indexing reports whether replicated state submitted on the shard — a
// batch whose ApplyReplicated call has not returned, or a snapshot being
// installed — has yet to be indexed.
func (c *Corpus) Indexing(shard int) bool { return c.shards[shard].indexing.Load() > 0 }

// WALReader returns a cursor over the shard's committed frames with
// LSN >= from that follows the log: frames committed after the call are
// returned by later Next calls, and a log reset or a truncation past the
// cursor is an error, never a skip. Safe to use concurrently with the
// apply loop; Close releases it.
func (c *Corpus) WALReader(shard int, from uint64) *wal.Reader {
	return c.shards[shard].st.Log.Reader(from)
}

// WALFirstLSN returns the oldest LSN the shard's log still retains;
// a follower requesting an older start position needs snapshot catch-up.
func (c *Corpus) WALFirstLSN(shard int) uint64 {
	return c.shards[shard].st.Log.FirstLSN()
}

// SnapshotForCatchup returns the shard's newest readable on-disk
// snapshot for shipping to a follower whose requested WAL position has
// been truncated away (nil when the shard has never snapshotted — then
// the log is complete from LSN 1 and no catch-up is needed). Reads from
// disk, so it is safe concurrently with the apply loop.
func (c *Corpus) SnapshotForCatchup(shard int) (*store.Snapshot, error) {
	return c.shards[shard].st.LatestSnapshot()
}

// SetShardWritable flips a shard between leader (local writes allowed)
// and follower (ErrNotLeader; state advances only via
// ApplyReplicated).
func (c *Corpus) SetShardWritable(shard int, writable bool) {
	c.shards[shard].notLeader.Store(!writable)
}

// ShardWritable reports whether the shard takes local writes.
func (c *Corpus) ShardWritable(shard int) bool {
	return !c.shards[shard].notLeader.Load()
}

// SetTruncateFloor holds the shard's WAL truncation back to lsn — the
// leader sets it to the minimum LSN its registered followers have
// acknowledged, so no follower is ever forced into snapshot catch-up by
// a snapshot-triggered truncation racing its stream.
func (c *Corpus) SetTruncateFloor(shard int, lsn uint64) {
	c.shards[shard].st.SetTruncateFloor(lsn)
}

// SetReplicationHealth registers the cluster layer's health callback;
// its report rides in Health().Replication (and so in /v1/healthz).
func (c *Corpus) SetReplicationHealth(fn func() *ReplicationHealth) {
	c.replHealth.Store(&fn)
}

// replBirthLead is how many of its shard's adds past the birth watermark
// a replicated add may be born; ApplyReplicated refuses a later one,
// whose apply would allocate every page-table chunk up to it. A session
// keeps at most one batch of 512 frames unindexed, so a real add lies
// within 512; eight times that caps a hostile one at 4,096·Shards slots.
const replBirthLead = 4096

// ApplyReplicated feeds frames shipped from the shard's leader through
// the apply loop: payloads are appended to the follower's own WAL at
// their original LSNs (frames already present are skipped),
// group-committed, and applied with the leader's logged timestamps.
// Frames must be strictly ascending and contiguous; if the first missing
// frame does not extend the local log, the valid prefix still commits
// and the error reports the break so the session re-syncs from
// CommittedLSN()+1.
//
// The call returns once the batch is durable — the ack a follower sends
// upstream is as strong as a client 202 — and the corpus index covers
// whatever committed.
func (c *Corpus) ApplyReplicated(shard int, frames []ReplFrame) error {
	if !c.durable {
		return errors.New("serve: replication requires a durable corpus")
	}
	if len(frames) == 0 {
		return nil
	}
	sh := c.shards[shard]
	c.idxMu.Lock()
	watermark := c.seq
	c.idxMu.Unlock()
	lead := replBirthLead * len(c.shards)
	for i := range frames {
		rec, err := decodeWALRecord(frames[i].Payload)
		if err != nil {
			return fmt.Errorf("serve: replicated frame lsn %d: %w", frames[i].LSN, err)
		}
		if rec.kind == recKindAdd && rec.add.Birth >= watermark+lead {
			return fmt.Errorf("serve: replicated frame lsn %d: page %d born at %d, %d or more past the birth watermark %d",
				frames[i].LSN, rec.add.ID, rec.add.Birth, lead, watermark)
		}
		if i > 0 && frames[i].LSN != frames[i-1].LSN+1 {
			return fmt.Errorf("serve: replicated frames not contiguous at lsn %d", frames[i].LSN)
		}
		frames[i].rec = rec
	}
	sh.indexing.Add(1)
	defer sh.indexing.Add(-1)
	done := make(chan error, 1)
	sh.ch <- applyReq{repl: frames, done: done}
	err := <-done
	// Index-side effects for whatever actually committed: the corpus
	// index and id map are rebuilt from shard state at boot, so they are
	// maintenance here, not durability.
	applied := sh.committedLSN.Load()
	c.idxMu.Lock()
	defer c.idxMu.Unlock()
	for i := range frames {
		f := &frames[i]
		if f.LSN > applied {
			break
		}
		switch f.rec.kind {
		case recKindAdd:
			a := f.rec.add
			if _, dup := c.birthOf(a.ID); dup {
				continue // duplicate frame, already indexed
			}
			if ierr := c.indexPage(a.ID, a.Birth, a.Text); ierr != nil {
				return fmt.Errorf("serve: indexing replicated page %d: %w", a.ID, ierr)
			}
		case recKindRemove:
			c.unindexPage(f.rec.remove)
		}
	}
	return err
}

// InstallReplicaSnapshot bootstraps an EMPTY follower shard from a
// leader-shipped snapshot: the shard's log is reset past the snapshot
// LSN, the snapshot is persisted locally (so a crash recovers from it),
// the state loads through the same restore path boot recovery uses, and
// the pages are indexed. A non-empty shard refuses — an established
// follower is protected from truncation by the leader's ack floor, so
// needing a snapshot there means the shard's history diverged.
func (c *Corpus) InstallReplicaSnapshot(shard int, snap *store.Snapshot) error {
	if !c.durable {
		return errors.New("serve: replication requires a durable corpus")
	}
	if snap == nil {
		return errors.New("serve: nil snapshot")
	}
	sh := c.shards[shard]
	sh.indexing.Add(1)
	defer sh.indexing.Add(-1)
	done := make(chan error, 1)
	sh.ch <- applyReq{snapInstall: snap, done: done}
	if err := <-done; err != nil {
		return err
	}
	c.idxMu.Lock()
	defer c.idxMu.Unlock()
	for _, p := range snap.Pages {
		if _, dup := c.birthOf(p.ID); dup {
			continue
		}
		if err := c.indexPage(p.ID, p.Birth, p.Text); err != nil {
			return fmt.Errorf("serve: indexing snapshot page %d: %w", p.ID, err)
		}
	}
	return nil
}

// appendRepl appends a replicated batch's raw payloads to the shard's
// WAL at their original LSNs. Runs on the apply loop between mustBegin
// groups; duplicates (frames at LSNs already present) are trimmed off
// the head, and a gap truncates the batch to the valid prefix and
// reports the break. Bookkeeping mirrors mustEnd: the lag grows by the
// on-disk frame, payload plus header.
func (sh *shard) appendRepl(r *applyReq) error {
	fs := r.repl
	next := sh.st.Log.NextLSN()
	for len(fs) > 0 && fs[0].LSN < next {
		fs = fs[1:]
	}
	var gap error
	if len(fs) > 0 && fs[0].LSN != next {
		gap = fmt.Errorf("serve: shard %d: replicated frame lsn %d does not extend local log at %d", sh.id, fs[0].LSN, next)
		fs = nil
	}
	for i := range fs {
		lsn, err := sh.st.Log.Append(fs[i].Payload)
		if err != nil {
			gap = fmt.Errorf("serve: shard %d: appending replicated frame: %w", sh.id, err)
			fs = fs[:i]
			break
		}
		if lsn != fs[i].LSN {
			panic(fmt.Sprintf("serve: shard %d: replicated frame lsn %d appended at %d", sh.id, fs[i].LSN, lsn))
		}
		sh.appliedLSN.Store(lsn)
		sh.walLag.Add(int64(len(fs[i].Payload)) + wal.FrameOverhead)
	}
	r.repl = fs // apply exactly what was appended
	return gap
}

// handleSnapInstall services an applyReq carrying a replica snapshot,
// acking or nacking its done channel itself (it runs before the group's
// WAL encode, outside the normal ack flow).
func (sh *shard) handleSnapInstall(r *applyReq) {
	snap := r.snapInstall
	finish := func(err error) {
		sh.ack(r, err) // holds no credit: only feedback is admitted
		r.done = nil
	}
	if len(sh.seqOf) != 0 || sh.appliedLSN.Load() != 0 {
		finish(fmt.Errorf("serve: shard %d is not empty; snapshot install requires a fresh follower", sh.id))
		return
	}
	// Reset the (empty) log past the snapshot, persist the snapshot
	// BEFORE loading it — state must never run ahead of what a crash
	// can recover — then restore exactly as boot recovery would.
	if err := sh.st.Log.ResetTo(snap.LSN + 1); err != nil {
		finish(err)
		return
	}
	if err := sh.st.WriteSnapshot(snap, sh.cfg.Durability.KeepLog); err != nil {
		finish(err)
		return
	}
	sh.restoreSnapshot(snap)
	sh.committedLSN.Store(snap.LSN)
	sh.walLag.Store(0)
	sh.lastSnap = time.Now()
	sh.publish()
	finish(nil)
}

// FollowerLag is one registered follower's replication position as seen
// by the shard's leader.
type FollowerLag struct {
	// Node is the follower's cluster node ID.
	Node string `json:"node"`
	// AckedLSN is the last LSN the follower acknowledged as durable.
	AckedLSN uint64 `json:"acked_lsn"`
	// LagFrames and LagBytes measure how far the follower trails the
	// leader's committed position.
	LagFrames uint64 `json:"lag_frames"`
	LagBytes  int64  `json:"lag_bytes"`
}

// ReplShardHealth is one shard's replication row.
type ReplShardHealth struct {
	Shard int `json:"shard"`
	// Role is "leader", "follower" or "candidate" (heartbeats lapsed,
	// election in progress).
	Role string `json:"role"`
	// Epoch is the fencing epoch the shard currently accepts frames
	// under; it increments at every failover.
	Epoch uint64 `json:"epoch"`
	// CommittedLSN is this node's durable position for the shard.
	CommittedLSN uint64 `json:"committed_lsn"`
	// LeaderLSN is the leader's committed position as of the last
	// heartbeat or frame (follower roles only).
	LeaderLSN uint64 `json:"leader_lsn,omitempty"`
	// LagFrames and LagBytes measure this node's distance behind the
	// leader (follower roles only; the stale-read guard trips on
	// LagFrames > max-follower-lag).
	LagFrames uint64 `json:"lag_frames,omitempty"`
	LagBytes  int64  `json:"lag_bytes,omitempty"`
	// HeartbeatAgeMillis is how long since the leader was last heard
	// from (follower roles only; -1 before the first heartbeat).
	HeartbeatAgeMillis int64 `json:"heartbeat_age_ms,omitempty"`
	// WindowFrames is how many durable frames the slowest registered
	// follower has not yet acknowledged, against WindowCap — the
	// leader's replication flow-control window (leader role only).
	// Occupancy near the cap means shipping is pausing on follower
	// acks instead of the network.
	WindowFrames uint64 `json:"window_frames,omitempty"`
	WindowCap    uint64 `json:"window_cap,omitempty"`
	// Followers lists registered follower positions (leader role only).
	Followers []FollowerLag `json:"followers,omitempty"`
}

// ReplicationHealth is the cluster layer's contribution to /v1/healthz.
type ReplicationHealth struct {
	// Node is this node's cluster ID.
	Node string `json:"node"`
	// Role summarizes the node: "leader" (leads every shard),
	// "follower" (leads none), or "mixed".
	Role string `json:"role"`
	// MaxLagFrames is the stale-read bound in frames; a follower shard
	// lagging past it fails rank reads with 503 until it catches up.
	MaxLagFrames uint64 `json:"max_lag_frames"`
	// Shards holds the per-shard replication detail.
	Shards []ReplShardHealth `json:"shards"`
}

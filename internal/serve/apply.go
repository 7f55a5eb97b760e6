package serve

import (
	"fmt"
	"time"

	"repro/internal/rankengine"
	"repro/internal/wal"
)

// run is a shard's apply loop — the only goroutine that touches the
// shard's mutable ranking state — and every shard, in-memory or durable,
// runs it: serial group commit. It blocks for a request, drains whatever
// queued behind it — that is the group — commits the group's records
// once (one write, one sync) when the shard has a log, and only then
// applies, publishes once, releases the admission credits and
// acknowledges, so an acknowledged batch is on disk before anyone learns
// it was applied. Requests that arrive while a commit sits in its sync
// wait in the channel and form the next group, so groups grow with sync
// latency on their own; overlap comes from the other shards' loops,
// which share the disk and keep the CPU busy meanwhile. An in-memory
// shard has no log: commitGroup, maybeSnapshot and shutdown skip their
// log steps and the rest of the loop is the same. The loop waits on
// nothing but its request channel.
func (sh *shard) run() {
	var reqs []applyReq // the group; scratch reused across iterations
	for r := range sh.ch {
		reqs = append(reqs[:0], r)
	drain:
		for {
			select {
			case r, ok := <-sh.ch:
				if !ok {
					break drain
				}
				reqs = append(reqs, r)
			default:
				break drain
			}
		}
		// Credits are NOT released here: a credit spans admission to
		// acknowledgment, so a group riding its commit stays inside the
		// queue bound TryFeedback enforces (429 past cap).
		if sh.killed.Load() {
			// Crash simulation. Everything acknowledged so far is on disk;
			// the group just gathered was never logged: nack its waiters
			// (from outside, a dying process looks like an error, not a
			// hang) and stop as a dead process would.
			for ri := range reqs {
				sh.ack(&reqs[ri], errKilled)
			}
			break
		}
		// Replica snapshot installs are standalone: they reset the
		// shard's log, whose buffer is empty between groups, and ack
		// themselves.
		for ri := range reqs {
			if reqs[ri].snapInstall != nil {
				sh.handleSnapInstall(&reqs[ri])
			}
		}
		// Additions and removals retained from a previously failed
		// commit lead the group: their index-side effects are already
		// visible, so they must reach shard state (and the log) before
		// anything newer.
		if len(sh.pending) > 0 {
			reqs = append(sh.pending, reqs...)
			sh.pending = nil
		}
		// One timestamp per group: the clock every applyEvent in the
		// group runs on, logged in each record so recovery and replay
		// reproduce time-dependent telemetry exactly.
		now := time.Now().UnixNano()
		if replErrs, endLSN, ok := sh.commitGroup(reqs, now); ok {
			sh.applyGroup(reqs, replErrs, endLSN, now)
		}
		// Drop the group's references so retained done channels and
		// event slices can be collected while the loop idles.
		clear(reqs)
	}
	sh.shutdown()
}

// commitGroup encodes every record of the group into the WAL buffer and
// commits it. endLSN is the group's last LSN, 0 when it appended nothing
// (a bare Sync, a fully deduped replication batch, or an in-memory
// shard, which has no log and commits nothing). A failed commit is
// rolled back (rollbackGroup) and reports !ok: nothing in the group may
// be applied or acknowledged.
func (sh *shard) commitGroup(reqs []applyReq, now int64) (replErrs []error, endLSN uint64, ok bool) {
	if sh.st == nil {
		return nil, 0, true
	}
	// Capture the log position so a failed commit can rewind the health
	// counters along with the log's own rollback.
	startLSN := sh.st.Log.NextLSN()
	prevLag := sh.walLag.Load()
	for ri := range reqs {
		r := &reqs[ri]
		if r.snapInstall != nil {
			continue // handled by the loop
		}
		if len(r.repl) > 0 {
			if err := sh.appendRepl(r); err != nil {
				if replErrs == nil {
					replErrs = make([]error, len(reqs))
				}
				replErrs[ri] = err
			}
			continue
		}
		for _, a := range r.add {
			sh.mustEnd(appendAddRecord(sh.mustBegin(), a, now))
		}
		for _, id := range r.remove {
			sh.mustEnd(appendRemoveRecord(sh.mustBegin(), id, now))
		}
		for _, e := range r.events {
			sh.mustEnd(appendEventRecord(sh.mustBegin(), e, now))
		}
	}
	if err := sh.st.Log.Commit(); err != nil {
		sh.rollbackGroup(reqs, startLSN, prevLag, err)
		return nil, 0, false
	}
	sh.walErr.Store(nil)
	if end := sh.st.Log.NextLSN() - 1; end >= startLSN {
		sh.committedLSN.Store(end)
		endLSN = end
		if fn := sh.cfg.OnCommit; fn != nil {
			fn(sh.id)
		}
	}
	return replErrs, endLSN, true
}

// rollbackGroup handles a failed group commit: NOTHING in the group may
// be acknowledged or applied. The group's frames are dropped (the WAL
// truncates any partial bytes and rewinds its LSN), the health counters
// rewind to the group's start, every waiter is nacked, and the sticky
// unhealthy state surfaces. Additions/removals are retained for the next
// group — their index-side effects already happened; events are the
// clients' to retry.
func (sh *shard) rollbackGroup(reqs []applyReq, startLSN uint64, prevLag int64, err error) {
	sh.walFailures.Add(1)
	msg := err.Error()
	sh.walErr.Store(&msg)
	if derr := sh.st.Log.DropBuffered(); derr != nil {
		// The log could not even restore its tail; give up loudly
		// rather than risk acknowledging over corruption.
		panic(fmt.Sprintf("serve: shard WAL unrecoverable after failed commit: %v (commit: %v)", derr, err))
	}
	sh.appliedLSN.Store(startLSN - 1)
	sh.walLag.Store(prevLag)
	for ri := range reqs {
		r := &reqs[ri]
		if len(r.add) > 0 || len(r.remove) > 0 {
			sh.pending = append(sh.pending, applyReq{add: r.add, remove: r.remove})
		}
		sh.ack(r, err)
	}
}

// applyGroup finishes a committed group: apply, publish once, release
// credits, acknowledge — in that order, so the Sync/ack contract
// (durable AND applied AND published) holds when a done channel closes.
func (sh *shard) applyGroup(reqs []applyReq, replErrs []error, endLSN uint64, now int64) {
	// One publish per group, not per request: the group boundary that
	// amortizes the fsync amortizes the top-list rebuild too.
	dirty := false
	for _, r := range reqs {
		for _, f := range r.repl {
			if sh.applyRecord(f.rec) {
				dirty = true
			}
		}
		for _, a := range r.add {
			if sh.applyAdd(a) {
				dirty = true
			}
		}
		for _, id := range r.remove {
			if sh.applyRemove(id) {
				dirty = true
			}
		}
		for _, e := range r.events {
			if sh.liveEvent(e, now) {
				dirty = true
			}
		}
	}
	if dirty {
		sh.publish()
	}
	for ri := range reqs {
		r := &reqs[ri]
		if r.lsn != nil {
			*r.lsn = endLSN
		}
		var err error
		if replErrs != nil {
			// The valid prefix of the replicated batch committed and
			// applied; the error tells the session where continuity
			// broke so it can re-sync from committedLSN+1.
			err = replErrs[ri]
		}
		sh.ack(r, err)
	}
	sh.maybeSnapshot()
}

// ack releases r's admission credit and answers its waiter: done closes
// (the ack) after err, when non-nil, is sent on it (the nack).
func (sh *shard) ack(r *applyReq, err error) {
	if r.credited {
		sh.credits.Add(-1)
	}
	if r.done != nil {
		if err != nil {
			r.done <- err
		}
		close(r.done)
	}
}

// applyRecord applies one decoded WAL record — a frame replicated from
// the leader or a record replayed at boot — with the timestamp it was
// logged at, so a follower and a recovering shard reach exactly the
// state the logging shard did. Reports whether the servable view changed.
func (sh *shard) applyRecord(r walRecord) bool {
	switch r.kind {
	case recKindAdd:
		return sh.applyAdd(r.add)
	case recKindEvent:
		return sh.liveEvent(r.event, r.nanos)
	case recKindRemove:
		return sh.applyRemove(r.remove)
	}
	return false
}

// mustBegin and mustEnd bracket one in-place record write
// (wal.BeginRecord/EndRecord): the record encoders append the payload
// directly into the log's commit buffer, so logging a batch costs zero
// intermediate copies. Neither call does I/O and neither can fail short
// of a programming error; Commit is where injected and real disk faults
// surface, and they are handled there. The WAL lag grows by the whole
// frame, header included: on-disk bytes, the unit every path counts.
func (sh *shard) mustBegin() []byte {
	buf, err := sh.st.Log.BeginRecord()
	if err != nil {
		panic(fmt.Sprintf("serve: shard WAL begin failed: %v", err))
	}
	sh.recStart = len(buf) - int(wal.FrameOverhead)
	return buf
}

func (sh *shard) mustEnd(buf []byte) {
	lsn, err := sh.st.Log.EndRecord(buf)
	if err != nil {
		panic(fmt.Sprintf("serve: shard WAL append failed: %v", err))
	}
	sh.appliedLSN.Store(lsn)
	sh.walLag.Add(int64(len(buf) - sh.recStart))
}

// liveEvent applies one event through the shared event-application path
// and credits the serving-side telemetry — the per-slot table and the
// per-arm tallies — from its outcome. Arm attribution is best-effort:
// events with an empty or unknown arm name still apply in full, they
// just credit no arm.
func (sh *shard) liveEvent(e Event, nanos int64) bool {
	out := sh.shardState.applyEvent(e, nanos)
	if !out.applied {
		return false
	}
	sh.slots.record(e)
	if arm := sh.arms[e.Arm]; arm != nil {
		t := &sh.tallies[arm.idx]
		t.impressions.Add(uint64(e.Impressions))
		t.clicks.Add(uint64(e.Clicks))
		if out.discovery {
			// A discovery for the arm that served the click. The
			// time-to-first-click sample measures the gap from an EARLIER
			// event's first impression to the discovering click; an event
			// carrying both contributes no (degenerate ~0) sample.
			t.discoveries.Add(1)
			if out.priorFirstImp > 0 {
				t.ttfcSumNanos.Add(nanos - out.priorFirstImp)
				t.ttfcCount.Add(1)
			}
		}
	}
	return out.rankChanged
}

// publish rebuilds and atomically swaps the shard's snapshot: the treap's
// top-K in rank order plus the zero-awareness pool's chunks, shared as
// they stand (O(1) in the pool's size; see cowPool). Readers holding the
// old snapshot keep a consistent view; new readers see the new epoch.
func (sh *shard) publish() {
	sh.snap.Store(&snapshot{
		epoch: sh.snap.Load().epoch + 1,
		top:   sh.treap.TopK(sh.cfg.TopK, make([]rankengine.Entry, 0, sh.cfg.TopK)),
		pool:  sh.pool.freeze(),
	})
}

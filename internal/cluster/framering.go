// The leader-side frame ring: an in-memory tail of one shard's WAL, fed
// by the serving layer's OnCommit hook with each group commit's frames
// once they are durable. Shipper sessions stream from the ring instead
// of re-reading segment files from disk on every commit — the hot path
// never touches the filesystem, and a follower keeping up costs the
// leader O(frames) instead of the O(frames²) a fresh wal.Reader per
// commit used to. Every frame in the ring is durable, so whatever a
// shipper reads from it is final: a failed commit never reaches it.
package cluster

import (
	"sync"

	"repro/internal/wal"
)

// ringMaxBytes bounds one shard's ring (payload bytes). A shipper that
// falls further behind than this reads the durable frames from the WAL
// itself and rejoins the ring when it catches back up.
const ringMaxBytes = 8 << 20

type frameRing struct {
	mu       sync.Mutex
	first    uint64   // LSN of payloads[0] when non-empty
	next     uint64   // LSN the next appended frame will carry (0 before first feed)
	payloads [][]byte // contiguous: payloads[i] is LSN first+i
	bytes    int64
}

// Append feeds one group commit's raw encoded frames, starting at
// firstLSN. The bytes are copied once; per-frame payloads alias the
// copy and stay immutable, so Read can hand them out without locking
// them down.
func (rg *frameRing) Append(firstLSN uint64, frames []byte) {
	blob := make([]byte, len(frames))
	copy(blob, frames)
	rg.mu.Lock()
	defer rg.mu.Unlock()
	if firstLSN != rg.next {
		// First feed, or a discontinuity (a log reset under a snapshot
		// install): restart the ring here.
		rg.payloads = rg.payloads[:0]
		rg.bytes = 0
		rg.first = firstLSN
	}
	lsn := firstLSN
	wal.ForEachFrame(blob, func(payload []byte) bool {
		rg.payloads = append(rg.payloads, payload)
		rg.bytes += int64(len(payload))
		lsn++
		return true
	})
	rg.next = lsn
	for rg.bytes > ringMaxBytes && len(rg.payloads) > 1 {
		rg.bytes -= int64(len(rg.payloads[0]))
		rg.payloads[0] = nil
		rg.payloads = rg.payloads[1:]
		rg.first++
	}
}

// Read copies out up to budget payload bytes of contiguous frames
// starting at pos (at least one frame regardless of budget). ok=false
// when the ring cannot serve pos — empty, evicted below pos, or pos not
// yet appended.
func (rg *frameRing) Read(pos uint64, budget int) (payloads [][]byte, ok bool) {
	rg.mu.Lock()
	defer rg.mu.Unlock()
	if len(rg.payloads) == 0 || pos < rg.first || pos >= rg.next {
		return nil, false
	}
	total := 0
	for _, p := range rg.payloads[pos-rg.first:] {
		if total > 0 && total+len(p) > budget {
			break
		}
		payloads = append(payloads, p)
		total += len(p)
	}
	return payloads, true
}

// NextLSN returns the LSN the next appended frame will carry — the
// ring's coverage is [first, NextLSN). Zero before the first feed.
func (rg *frameRing) NextLSN() uint64 {
	rg.mu.Lock()
	defer rg.mu.Unlock()
	return rg.next
}

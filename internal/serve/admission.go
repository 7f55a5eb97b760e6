// Admission control and abuse defenses for the serving path: bounded
// feedback admission with overload (degraded-mode) tracking, per-client
// token-bucket rate limiting, and click-provenance checks that keep
// coordinated click fraud from laundering junk pages out of the
// zero-awareness pool.
//
// Everything here runs BEFORE the write-ahead log: a rejected request is
// never logged, a provenance-stripped click never reaches a shard, so
// recovery and offline replay see exactly the feedback that was
// admitted — the WAL record format is untouched by the defenses.
package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// ErrOverloaded is returned by TryFeedback when a target shard's
// feedback queue is full. The HTTP layer maps it to 429 + Retry-After;
// nothing was enqueued (admission is all-or-nothing across shards), so
// the client may retry the whole batch.
var ErrOverloaded = errors.New("serve: feedback queue full")

// overloadState tracks the corpus's degraded mode and its counters.
// Degraded mode is a hold window extended by every overload signal
// (a shed feedback batch): while it lasts, the query path prefers the
// last-epoch cached candidates over cold rebuilds — stale-but-fast.
type overloadState struct {
	until        atomic.Int64  // unix nanos the degraded hold expires at
	rejected     atomic.Uint64 // feedback batches refused with ErrOverloaded
	staleServed  atomic.Uint64 // rank requests served from a stale cache entry
	shedRebuilds atomic.Uint64 // cold rebuilds skipped while degraded
}

// DefaultDegradedHold is how long the corpus stays in degraded mode
// after the last overload signal when Config.Limits.DegradedHold is zero.
const DefaultDegradedHold = 3 * time.Second

// noteOverload (re)starts the degraded hold window.
func (c *Corpus) noteOverload() {
	c.over.until.Store(time.Now().Add(c.cfg.Limits.DegradedHold).UnixNano())
}

// Degraded reports whether the corpus is currently in the degraded
// (load-shedding, stale-serving) mode.
func (c *Corpus) Degraded() bool {
	return time.Now().UnixNano() < c.over.until.Load()
}

// tryAcquire reserves one feedback-queue credit on the shard, failing
// when the credited in-flight batches already fill the queue plus the
// one batch the apply loop is actively committing. Credits are released
// by the apply loop as each batch is acknowledged (or nacked), so
// admitted-but-unresolved batches — queued or mid-fsync — can never
// exceed that bound: bounded memory under any offered load.
func (sh *shard) tryAcquire() bool {
	if sh.credits.Add(1) > int64(cap(sh.ch))+1 {
		sh.credits.Add(-1)
		return false
	}
	return true
}

// rateLimiter is a keyed token-bucket limiter: each client (experiment
// unit when present, else remote IP) owns a bucket refilled at rps with
// the given burst. The map is bounded: when it outgrows maxBuckets, a
// sweep drops buckets idle long enough to have fully refilled — they
// are indistinguishable from fresh ones, so dropping loses nothing.
type rateLimiter struct {
	mu      sync.Mutex
	rps     float64
	burst   float64
	buckets map[string]*bucket
	limited atomic.Uint64
}

type bucket struct {
	tokens float64
	last   int64 // unix nanos of the last refill
}

const maxBuckets = 4096

func newRateLimiter(rps float64, burst int) *rateLimiter {
	if burst <= 0 {
		burst = 1
	}
	return &rateLimiter{rps: rps, burst: float64(burst), buckets: make(map[string]*bucket)}
}

// allow consumes one token from key's bucket, reporting false (and
// counting) when the bucket is empty.
func (rl *rateLimiter) allow(key string) bool {
	now := time.Now().UnixNano()
	rl.mu.Lock()
	b := rl.buckets[key]
	if b == nil {
		if len(rl.buckets) >= maxBuckets {
			rl.sweep(now)
		}
		b = &bucket{tokens: rl.burst, last: now}
		rl.buckets[key] = b
	} else {
		b.tokens += float64(now-b.last) / float64(time.Second) * rl.rps
		if b.tokens > rl.burst {
			b.tokens = rl.burst
		}
		b.last = now
	}
	ok := b.tokens >= 1
	if ok {
		b.tokens--
	}
	rl.mu.Unlock()
	if !ok {
		rl.limited.Add(1)
	}
	return ok
}

// sweep drops buckets idle long enough to be full again. Called with
// the lock held.
func (rl *rateLimiter) sweep(now int64) {
	idle := int64(rl.burst / rl.rps * float64(time.Second))
	for k, b := range rl.buckets {
		if now-b.last >= idle {
			delete(rl.buckets, k)
		}
	}
}

// ProvenanceConfig enables click-provenance checks on the feedback
// admission path. The threat: the zero-awareness pool promotes a page on
// its FIRST click (the paper's selective rule), which makes it a
// laundering target — a fraud campaign can click its own junk page once
// and it joins the deterministic ranking. The defense holds clicks on
// still-unexplored pages until enough DISTINCT clients vouch for the
// page within a decaying window, and caps how many clicks any one
// client may contribute to any one page. The zero value disables both
// checks.
type ProvenanceConfig struct {
	// MinDistinctClickers holds clicks on a zero-awareness page (they
	// apply as impressions only) until at least this many distinct
	// units have clicked it within the window. 0 disables the quorum.
	// Clicks without a unit cannot build quorum: an anonymous flood is
	// exactly the signal the check exists to discount.
	MinDistinctClickers int
	// UnitPageClickCap caps the clicks one unit may contribute to one
	// page per window; the excess is dropped. 0 disables the cap.
	UnitPageClickCap int
	// Window is the decay horizon for both checks (default 1 minute).
	// State older than two windows is forgotten entirely.
	Window time.Duration
}

func (p ProvenanceConfig) enabled() bool {
	return p.MinDistinctClickers > 0 || p.UnitPageClickCap > 0
}

// provKey identifies one (unit, page) click budget.
type provKey struct {
	unit string
	page int
}

// provenanceGuard applies ProvenanceConfig with generational decay: two
// window-sized generations are kept and the older one is dropped on
// rotation, so every count fades within [Window, 2×Window] without a
// per-entry timer.
type provenanceGuard struct {
	cfg ProvenanceConfig

	mu        sync.Mutex
	rotatedAt int64                   // unix nanos of the last rotation
	curClicks map[provKey]int         // clicks contributed this generation
	prvClicks map[provKey]int         // ... previous generation
	curVouch  map[int]map[string]bool // page -> units that clicked, this generation
	prvVouch  map[int]map[string]bool // ... previous generation

	held   atomic.Uint64 // clicks held awaiting quorum
	capped atomic.Uint64 // clicks dropped by the per-unit cap
}

func newProvenanceGuard(cfg ProvenanceConfig) *provenanceGuard {
	if cfg.Window <= 0 {
		cfg.Window = time.Minute
	}
	return &provenanceGuard{
		cfg:       cfg,
		rotatedAt: time.Now().UnixNano(),
		curClicks: make(map[provKey]int),
		curVouch:  make(map[int]map[string]bool),
	}
}

// rotate ages the generations when a window has elapsed. Called with
// the lock held.
func (g *provenanceGuard) rotate(now int64) {
	if now-g.rotatedAt < int64(g.cfg.Window) {
		return
	}
	g.prvClicks, g.curClicks = g.curClicks, make(map[provKey]int)
	g.prvVouch, g.curVouch = g.curVouch, make(map[int]map[string]bool)
	g.rotatedAt = now
}

// admit applies the provenance checks to one event, returning the event
// with any disallowed clicks removed. Events without clicks pass
// untouched. aware reports whether the page has already been promoted
// out of the zero-awareness pool — the quorum only guards unexplored
// pages, where a single click would otherwise promote.
func (g *provenanceGuard) admit(e Event, aware bool) Event {
	if e.Clicks <= 0 {
		return e
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.rotate(time.Now().UnixNano())
	if limit := g.cfg.UnitPageClickCap; limit > 0 {
		k := provKey{unit: e.Unit, page: e.Page}
		used := g.curClicks[k] + g.prvClicks[k]
		allowed := limit - used
		if allowed < 0 {
			allowed = 0
		}
		if e.Clicks > allowed {
			g.capped.Add(uint64(e.Clicks - allowed))
			e.Clicks = allowed
		}
		g.curClicks[k] += e.Clicks
		if e.Clicks == 0 {
			return e
		}
	}
	if q := g.cfg.MinDistinctClickers; q > 0 && !aware {
		if e.Unit != "" {
			set := g.curVouch[e.Page]
			if set == nil {
				set = make(map[string]bool)
				g.curVouch[e.Page] = set
			}
			set[e.Unit] = true
		}
		if g.distinct(e.Page) < q {
			g.held.Add(uint64(e.Clicks))
			e.Clicks = 0
		}
	}
	return e
}

// distinct counts the units that clicked the page across both
// generations. Called with the lock held.
func (g *provenanceGuard) distinct(page int) int {
	cur := g.curVouch[page]
	n := len(cur)
	for u := range g.prvVouch[page] {
		if !cur[u] {
			n++
		}
	}
	return n
}

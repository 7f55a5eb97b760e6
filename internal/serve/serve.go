// Package serve is the online ranking service the paper argues a live
// search engine should run: it holds a corpus in N popularity shards,
// answers rank requests by merging shard top-lists and applying a
// randomized rank-promotion policy per query (§4), and ingests
// impression/click feedback that updates popularity and awareness —
// promoting pages out of the zero-awareness pool exactly as the selective
// rule requires, so that real user feedback (not an offline snapshot)
// decides which new pages surface.
//
// Concurrency design. Pages hash to shards by ID. Each shard's mutable
// ranking state — an order-statistic treap over explored (aware) pages and
// the zero-awareness pool — is owned by a single apply goroutine that
// drains batched feedback from a channel; nothing else ever touches it, so
// the writer needs no locks. Readers see the shard through two lock-free
// structures: an epoch-swapped (RCU-style) snapshot holding the
// deterministic top-K list and the whole zero-awareness pool as shared
// copy-on-write chunks (pool.go), republished atomically after every
// batch that changes ranking state, and a dense page table indexed by
// birth sequence whose per-page fields are atomics the apply loop
// stores, the live flag last (table.go).
// The search index keeps its postings in atomically replaced immutable
// per-term cells (searchidx: a reader that loads the index epoch and then
// the cells sees everything up to that epoch), so the query path holds
// no lock either: conjunctive retrieval intersects the posting lists
// into pooled scratch (merging lists alike in size, galloping through
// much longer ones), top-K selection runs a bounded heap over the
// candidate stream, and a hot-query cache keyed by (normalized query,
// index epoch, corpus epoch) reuses the deterministic candidate
// assembly across requests — the randomized promotion draw stays
// per-request, with an RNG draw sequence identical to the uncached path.
// A /rank request is therefore lock-free reads plus one bounded merge
// (policy.Scratch.MergeBounded) that fills only the n served slots and
// draws each promoted page lazily and uniformly from every shard's pool;
// /feedback is a channel send per shard.
//
// Durability (Config.Durability.DataDir) is event sourcing under that
// same design:
// every shard mutation flows through one pure event-application path
// (state.go), and the apply loop writes each drained group of requests
// to a per-shard write-ahead log — one group-commit fsync per batch —
// before applying it, so an acknowledged feedback batch survives a
// crash while /rank never touches the log. Periodic snapshots bound
// recovery, which replays the WAL tail through the identical apply path
// (durability.go); the retained log doubles as the input to offline
// counterfactual policy evaluation (replay.go).
//
// Files by seam: serve.go the shared types; config.go the Config;
// corpus.go the corpus lifecycle (NewCorpus, Add/Remove, Feedback,
// Sync/Close/Kill, read accessors); rank.go the rank path (candidates,
// the bounded merge, Top); apply.go the shard apply loop (group commit,
// apply, publish).
package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rankengine"
	"repro/internal/searchidx"
	"repro/internal/store"
	"repro/internal/wal"
)

// DefaultTopN is the result-list length served when a request does not
// specify one.
const DefaultTopN = 10

// SlotTrack is how many leading result positions get their own
// impression/click telemetry counters; deeper slots fold into the last
// bucket.
const SlotTrack = 100

// slotCounters is one shard's per-position telemetry contribution,
// written by its apply loop (only for events actually applied, so the
// summed table always agrees with ImpressionsApplied/ClicksApplied) and
// read lock-free. Kept per shard so each shard's snapshot captures its
// own contribution consistently with its WAL position.
type slotCounters struct {
	imp [SlotTrack]atomic.Uint64
	clk [SlotTrack]atomic.Uint64
}

func (sc *slotCounters) record(e Event) {
	// applyEvent has already rejected Slot < 1.
	slot := e.Slot
	if slot > SlotTrack {
		slot = SlotTrack
	}
	sc.imp[slot-1].Add(uint64(e.Impressions))
	sc.clk[slot-1].Add(uint64(e.Clicks))
}

// Event is one slot-level feedback observation: the page served at a
// 1-based result position (Slot must be >= 1), how many times it was
// shown there and how many of those impressions were clicked. Clicks
// increase popularity and — per the selective rule — a first click
// promotes the page out of the zero-awareness pool. Impressions alone
// only feed telemetry: being shown is not being visited. Events with a
// slot below 1 or negative counts are counted as dropped.
type Event struct {
	Page        int `json:"page"`
	Slot        int `json:"slot"`
	Impressions int `json:"impressions"`
	Clicks      int `json:"clicks"`
	// Arm attributes the event to the experiment arm that served the
	// impression (echoed from the rank response). Empty or unknown names
	// still apply to popularity and awareness; they just credit no arm's
	// telemetry.
	Arm string `json:"arm,omitempty"`
	// Unit identifies the client (user or session) the feedback came
	// from. It is admission-control metadata — click provenance and
	// rate limiting key on it — consumed before the event is logged; it
	// is never persisted, so the WAL format is independent of the
	// defenses.
	Unit string `json:"unit,omitempty"`
}

// Stat is a page's current serving state. Values handed out are immutable
// copies; the apply loop replaces, never mutates, the stored ones. It is
// exactly the per-page state snapshots persist and recovery restores.
type Stat struct {
	ID         int
	Popularity float64
	Birth      int // corpus insertion sequence; smaller = older
	Aware      bool
	// Impressions and Clicks are lifetime feedback totals for the page.
	Impressions int64
	Clicks      int64
	// firstImpNanos is the wall-clock time the page's first impression
	// was applied, for time-to-first-click telemetry (0 = never shown).
	firstImpNanos int64
}

// Result is one served result slot.
type Result struct {
	ID         int
	Popularity float64
	// Promoted reports that the slot was filled from the promotion pool
	// rather than the deterministic ranking.
	Promoted bool
}

// Stats is a corpus-wide accounting snapshot. GET /v1/stats serves it
// (embedded in StatsResponse) under these JSON names.
type Stats struct {
	Pages           int     `json:"pages"`
	Aware           int     `json:"aware"`
	ZeroAware       int     `json:"zero_aware"`
	TotalPopularity float64 `json:"total_popularity"`
	// ImpressionsApplied and ClicksApplied count feedback actually folded
	// into shard state; Dropped counts events for unknown pages.
	ImpressionsApplied uint64 `json:"impressions_applied"`
	ClicksApplied      uint64 `json:"clicks_applied"`
	Dropped            uint64 `json:"dropped"`
	// Epochs holds each shard's snapshot epoch (how many times its
	// top-list has been republished).
	Epochs []uint64 `json:"epochs"`
	// QueryCacheHits, QueryCacheMisses and QueryCacheEntries describe the
	// hot-query candidate cache. A miss is any cacheable query request
	// that had to rebuild its candidates.
	QueryCacheHits    uint64 `json:"query_cache_hits"`
	QueryCacheMisses  uint64 `json:"query_cache_misses"`
	QueryCacheEntries int    `json:"query_cache_entries"`
	// Arms is each experiment arm's accounting, in declaration order (a
	// single implicit arm when Config.Arms was empty).
	Arms []ArmReport `json:"arms"`
	// Overload & defense accounting: FeedbackRejected counts batches
	// refused with ErrOverloaded, ProvenanceHeld and ProvenanceCapped
	// count clicks stripped by the provenance checks, and WALFailures
	// counts failed (nacked) WAL commits.
	FeedbackRejected uint64 `json:"feedback_rejected"`
	ProvenanceHeld   uint64 `json:"provenance_held"`
	ProvenanceCapped uint64 `json:"provenance_capped"`
	WALFailures      uint64 `json:"wal_failures"`
	// Cold-query pruning telemetry: BlocksSkipped counts posting blocks
	// the block-max bounds let uncached top-K scans skip,
	// CandidatesPruned the driving-list entries inside them (an upper
	// bound on the slot loads and heap comparisons avoided), and
	// ZACandidates the pool-eligible candidates enumerated from the
	// zero-awareness sub-index instead of filtered out of full scans.
	BlocksSkipped    uint64 `json:"blocks_skipped"`
	CandidatesPruned uint64 `json:"candidates_pruned"`
	ZACandidates     uint64 `json:"za_candidates"`
}

// applyReq is one message to a shard's apply loop. done, when non-nil,
// carries the batch's acknowledgement: the apply loop sends the WAL
// commit error (nack) or simply closes the channel (ack) after
// everything earlier was applied and published. Channels are buffered
// so a nack never blocks the loop.
type applyReq struct {
	add      []AddRecord
	events   []Event
	remove   []int
	credited bool // holds one admission credit, released at drain
	// repl carries replicated WAL frames from a leader (pre-decoded,
	// strictly ascending LSNs): the follower appends the raw payloads to
	// its own log — producing byte-identical frames — commits, and
	// applies them through applyRecord, the path boot recovery replays
	// through. Mutually exclusive with add/events/remove in one request.
	repl []ReplFrame
	// snapInstall replaces an EMPTY shard's state with a leader-shipped
	// snapshot (catch-up when the leader's WAL tail was truncated): the
	// shard's log is reset past the snapshot LSN and the snapshot is
	// persisted locally before the state loads.
	snapInstall *store.Snapshot
	done        chan error
	// lsn, when set, receives the end LSN of the group commit that made
	// the request durable, stored before done closes.
	lsn *uint64
}

// snapshot is a shard's immutable published view. pool carries birth
// sequences (dense table slots), the id space the whole candidate
// pipeline flows in.
type snapshot struct {
	epoch uint64
	top   []rankengine.Entry // deterministic top-K, best rank first
	pool  poolView           // every zero-awareness page of the shard
}

type shard struct {
	// shardState is the event-sourced corpus state: the only thing the
	// apply path mutates, the only thing snapshots persist, and the
	// surface recovery and offline replay share with live serving.
	shardState

	cfg Config
	id  int // shard index, for the OnCommit wake-up
	ch  chan applyReq

	// credits counts admission-controlled batches admitted but not yet
	// acknowledged (queued OR in the group being committed); TryFeedback
	// refuses (429) once it reaches cap(ch), so total in-flight work is
	// truly bounded for admission-controlled traffic.
	credits atomic.Int64

	// arms resolves feedback attribution; armOrder is the declaration
	// order; tallies holds this shard's per-arm telemetry contributions
	// (indexed by armState.idx), written only by the apply loop and
	// summed lock-free by reports — and persisted per shard, so arm
	// telemetry survives restarts.
	arms     map[string]*armState
	armOrder []*armState
	tallies  []armTally

	snap atomic.Pointer[snapshot]

	// slots is this shard's per-position telemetry contribution (see
	// slotCounters); per shard rather than corpus-wide so it snapshots
	// consistently with the shard's LSN.
	slots slotCounters

	killed *atomic.Bool // corpus-wide crash-simulation flag

	// Durability (nil/zero when the corpus is in-memory):
	st       *store.Shard
	recStart int // in-place record's frame start (mustBegin/mustEnd)
	// pending retains additions and removals from a batch whose WAL
	// commit failed: their index-side effects already happened (the
	// document is in/out of the search index), so they must eventually
	// reach shard state; they are re-logged ahead of the next batch.
	// Nacked EVENTS are not retained — the client was told (5xx) and
	// owns the retry.
	pending []applyReq
	// appliedLSN, snapLSN, walLag and the snapshot-failure telemetry are
	// written by the apply loop and read lock-free by Health.
	appliedLSN   atomic.Uint64
	snapLSN      atomic.Uint64
	walLag       atomic.Int64
	snapFailures atomic.Uint64
	snapErr      atomic.Pointer[string]
	// walFailures counts failed (nacked) WAL commits; walErr holds the
	// most recent commit error, cleared by the next success — the
	// sticky unhealthy signal /healthz surfaces.
	walFailures atomic.Uint64
	walErr      atomic.Pointer[string]
	lastSnap    time.Time // apply-loop only

	// committedLSN is the last WAL position made durable (advanced after
	// each successful group commit, after recovery replay, and after a
	// replica snapshot install). Replication ships frames up to here and
	// followers report it as their ack position.
	committedLSN atomic.Uint64
	indexing     atomic.Int64 // replicated batches or snapshots not yet indexed
	// notLeader, when set, refuses local writes (Add/Feedback/Remove)
	// with ErrNotLeader: the shard is a replication follower and its
	// state may only advance through frames shipped from the leader —
	// interleaving a locally assigned LSN would fork the log.
	notLeader atomic.Bool
}

// Corpus is the live sharded corpus behind the service. All methods are
// safe for concurrent use, except that Add, Feedback and Sync must not be
// called concurrently with or after Close.
type Corpus struct {
	cfg    Config
	shards []*shard
	wg     sync.WaitGroup

	// Durability (nil/false when Config.DataDir was empty):
	st       *store.Store
	syncPool *wal.SyncPool // coalesces shard fsyncs into shared syncfs barriers
	durable  bool
	killed   atomic.Bool
	recovery RecoveryInfo

	// arms holds the experiment arms in declaration order; armIdx indexes
	// them by name. pages and zeroAware count the corpus population for
	// the state-dependent policies (maintained by the apply loops).
	arms      []*armState
	armIdx    map[string]*armState
	pages     atomic.Int64
	zeroAware atomic.Int64

	// table is the dense page-stat array every shard writes its slots
	// into. byID maps each indexed page id to its birth sequence, in index
	// order: Add and Remove write it synchronously (under idxMu, through
	// indexPage and unindexPage), so Add's duplicate check sees adds still
	// queued for their applier. It cannot stand in for the appliers' seqOf
	// maps, which are in apply order: a follower applies replicated adds
	// before indexing them, recovery replays before rebuildIndex, offline
	// replay has no corpus, and a Remove then re-Add of one id rewrites
	// byID before the applier reaches the events queued ahead of the
	// Remove. byIDMu is held only around the map operation; the by-id
	// reads (Page, the provenance check) take it shared.
	table  *pageTable
	byIDMu sync.RWMutex
	byID   map[int]int

	idxMu sync.Mutex // serializes Add's index insert + birth-seq pairing
	idx   *searchidx.Index
	// zidx is the zero-awareness sub-index: per-term postings of only
	// the pool-eligible (live, never-clicked) pages, grown by the apply
	// loops as zero-popularity pages land and shrunk on promotion or
	// removal — so a query's promotion pool enumerates exactly today's
	// candidate set without scanning aware pages.
	zidx *searchidx.Index
	seq  int // birth watermark (highest birth ever seen + 1), guarded by idxMu
	// nextBirth is the per-shard stride counter: shard si's k-th page is
	// born at k*Shards+si, so birth sequences are unique per shard — the
	// property that lets a replication cluster place shard leaders on
	// different nodes, each allocating births independently, and still
	// ship WAL records verbatim with no cross-shard slot collisions.
	// Guarded by idxMu; raised past any birth observed from replication
	// or recovery (legacy globally-sequential births included, keyed by
	// their residue).
	nextBirth []int
	// replHealth, when set, augments Health() with the cluster layer's
	// replication roles and lag (the /v1/healthz surface).
	replHealth atomic.Pointer[func() *ReplicationHealth]

	qcache      *queryCache // nil only where a test ranks uncached
	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64

	// Cold-path pruning telemetry: posting blocks skipped by the
	// block-max bound check, driving-list entries inside those blocks
	// (an upper bound on suppressed matches), and zero-awareness
	// candidates enumerated from the sub-index.
	blocksSkipped    atomic.Uint64
	candidatesPruned atomic.Uint64
	zaCandidates     atomic.Uint64

	// rejected counts feedback batches refused with ErrOverloaded; prov
	// applies the click-provenance checks (nil when disabled).
	rejected atomic.Uint64
	prov     *provenanceGuard

	reqSeq  atomic.Uint64
	scratch sync.Pool // *reqScratch
}

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
package serve

import (
	"fmt"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultfs"
	"repro/internal/policy"
	"repro/internal/randutil"
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

// Limits groups the admission-control knobs: rate limiting and
// click-provenance defenses. Feedback overload needs no knob: a batch
// that finds a target shard's queue full is refused whole
// (ErrOverloaded), and ranking always serves the current state.
type Limits struct {
	// RateLimitRPS enables per-client token-bucket rate limiting on the
	// HTTP front end at this many requests per second per client (the
	// experiment unit when the request carries one, else the remote IP).
	// 0 disables rate limiting.
	RateLimitRPS float64
	// RateLimitBurst is the token-bucket burst size (default 1 when
	// rate limiting is enabled).
	RateLimitBurst int
	// Provenance configures click-provenance defenses on the feedback
	// admission path (see ProvenanceConfig). The zero value disables
	// them.
	Provenance ProvenanceConfig
}

// Durability groups the persistence knobs: the data directory, snapshot
// cadence, fsync policy and log retention. The zero value keeps the
// corpus in-memory only.
type Durability struct {
	// DataDir enables durability: every shard mutation is written to a
	// per-shard write-ahead log before it is applied, periodic snapshots
	// bound recovery time, and NewCorpus recovers the previous state from
	// the directory at boot. Empty keeps the corpus in-memory only (the
	// draw-for-draw identical legacy path the golden tests pin).
	DataDir string
	// SnapshotInterval is how often each shard persists a state snapshot
	// and truncates its log (checked at batch boundaries; 0 selects the
	// 30s default, negative disables periodic snapshots). A final
	// snapshot is always written on clean Close. Ignored without DataDir.
	SnapshotInterval time.Duration
	// FsyncMode selects the WAL durability mode: "batch" (default; one
	// fsync per group-committed feedback batch) or "none" (OS
	// writeback). Ignored without DataDir.
	FsyncMode string
	// KeepLog retains the full WAL history behind snapshots instead of
	// truncating it — required for offline counterfactual replay
	// (shuffledeck replay) over the complete event stream. Ignored
	// without DataDir.
	KeepLog bool
	// FaultInjector, when non-nil, routes the WAL's and the snapshot
	// writer's file writes and fsyncs through the fault injector — the
	// hook chaos scenarios and fault tests use to force short writes,
	// fsync errors, disk-full and latency spikes. Ignored without
	// DataDir.
	FaultInjector *faultfs.Injector
	// WALSegmentBytes overrides the WAL segment rotation size (0
	// selects wal.DefaultSegmentBytes). Smaller segments tighten the
	// truncation granularity behind snapshots — and let cluster tests
	// exercise follower snapshot catch-up without megabytes of
	// traffic. Ignored without DataDir.
	WALSegmentBytes int64
}

// Config sizes a Corpus. The zero value of every field selects a
// default. Admission and persistence knobs live in the Limits and
// Durability groups.
type Config struct {
	// Shards is the number of popularity shards (default 4).
	Shards int
	// TopK is the length of each shard's deterministic top-list snapshot
	// (default 128). The global deterministic ranking a request can see is
	// the merge of these, so Shards×TopK bounds the servable list.
	TopK int
	// QueueLen is each shard's feedback-queue capacity in batches
	// (default 64). Senders block when it fills: backpressure, not loss.
	QueueLen int
	// Policy is the promotion policy applied per query when no Arms are
	// declared. The zero Spec is replaced by policy.Recommended().
	Policy policy.Spec
	// Arms declares named experiment arms served side by side; requests
	// are assigned an arm by deterministic hash of their unit ID (or by a
	// weighted per-request draw without one). When non-empty, Arms takes
	// precedence over Policy.
	Arms []Arm
	// Seed drives all service randomness (per-request merge RNGs and
	// arm draws). Zero means seed 1.
	Seed uint64

	// Limits groups the admission-control knobs; Durability groups the
	// persistence knobs.
	Limits     Limits
	Durability Durability

	// OnCommit, when non-nil, is told each time a shard's WAL group
	// commit succeeds, once CommittedLSN covers it; a failed commit never
	// reaches it. It runs on the shard's apply goroutine, so it must
	// return quickly: replication uses it to wake the shard's shippers,
	// which read the new frames with WALReader. Ignored without
	// Durability.DataDir.
	OnCommit func(shard int)
}

// Validate reports the first problem with the configuration, or nil.
// Zero sizing fields are legal (they select defaults); a negative size
// is an error, caught here rather than panicking deep in shard setup. When
// Arms are declared, Policy is ignored (the arms carry the policies), so
// it is not checked; otherwise it is the implicit default arm's policy.
func (c Config) Validate() error {
	switch {
	case c.Shards < 0:
		return fmt.Errorf("serve: Shards must be >= 0 (0 = default), got %d", c.Shards)
	case c.TopK < 0:
		return fmt.Errorf("serve: TopK must be >= 0 (0 = default), got %d", c.TopK)
	case c.QueueLen < 0:
		return fmt.Errorf("serve: QueueLen must be >= 0 (0 = default), got %d", c.QueueLen)
	}
	if _, err := wal.ParseFsyncMode(c.Durability.FsyncMode); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	// Arm names, weights and policy specs are validated by the single
	// arm-construction path.
	_, err := buildArms(c.withDefaults())
	return err
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.TopK <= 0 {
		c.TopK = 128
	}
	if c.QueueLen <= 0 {
		c.QueueLen = 64
	}
	if c.Durability.SnapshotInterval == 0 {
		c.Durability.SnapshotInterval = 30 * time.Second
	}
	if c.Policy == (policy.Spec{}) {
		c.Policy = policy.Recommended()
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
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
	return c.shards[int(uint(id)%uint(len(c.shards)))]
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

// Kill is the SIGKILL-equivalent shutdown for crash testing: it stops
// the apply loops WITHOUT the final snapshot or queue-drain courtesy of
// Close, abandoning whatever was still queued — exactly the state a
// crashed process leaves behind. Recovery from the DataDir must
// reconstruct everything that was acknowledged before the kill. Like
// Close, it must not race Add, Feedback or Sync.
func (c *Corpus) Kill() {
	c.killed.Store(true)
	for _, sh := range c.shards {
		close(sh.ch)
	}
	c.wg.Wait()
	// A dead process loses its flock too; releasing it keeps the crash
	// simulation honest (the restart must be able to lock the dir).
	if c.st != nil {
		c.st.Close()
		c.syncPool.Close()
	}
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

// reqScratch is the per-request working set, recycled through a pool so a
// steady-state Rank call allocates only its result slice. A request's
// promotion pool is one of three sources: pool, the pages the coin rule
// pooled; matches, a read-only view of a query's zero-awareness matches
// (rs.poolAll's or a cache entry's, never appended to); or global, every
// shard's published pool.
type reqScratch struct {
	rng     *randutil.RNG
	sc      policy.Scratch
	det     []int
	pool    []int
	matches policy.Slice
	global  globalPool
	ids     []int
	poolAll []int
	u32     []uint32
	cand    []candRef
	heads   []int
	snaps   []*snapshot
}

// Rank serves one query: lock-free candidate assembly, one bounded
// merge under the assigned arm's policy, at most n results. An empty
// query ranks the whole corpus by merging the shard top-list
// snapshots; a non-empty query ranks the conjunctive matches
// from the search index. Each call randomizes independently, the way
// every user query sees a fresh merge. With multiple arms and no unit
// ID, the arm is drawn by weight per request.
func (c *Corpus) Rank(query string, n int) ([]Result, error) {
	res, _, err := c.rankInto(query, n, nil, "", nil, nil)
	return res, err
}

// RankSeeded is Rank with caller-controlled randomness, for reproducible
// tests and benchmarks.
func (c *Corpus) RankSeeded(query string, n int, seed uint64) ([]Result, error) {
	res, _, err := c.rankInto(query, n, &seed, "", nil, nil)
	return res, err
}

// RankUnit serves a request on behalf of the given experiment unit (a
// user or session ID): the unit hashes deterministically to an arm, so
// the same unit always sees the same policy at a fixed arm set. It
// returns the serving arm's name for feedback attribution.
func (c *Corpus) RankUnit(unit, query string, n int) ([]Result, string, error) {
	return c.rankInto(query, n, nil, unit, nil, nil)
}

// RankUnitSeeded is RankUnit with caller-controlled merge randomness.
func (c *Corpus) RankUnitSeeded(unit, query string, n int, seed uint64) ([]Result, string, error) {
	return c.rankInto(query, n, &seed, unit, nil, nil)
}

// rankInto is the request entry shared by the public API and the HTTP
// handler: results are appended to dst (which may be nil), so a pooled
// caller pays no result allocation either. forced, when non-nil,
// overrides arm assignment.
func (c *Corpus) rankInto(query string, n int, seed *uint64, unit string, forced *armState, dst []Result) ([]Result, string, error) {
	rs := c.scratch.Get().(*reqScratch)
	defer c.scratch.Put(rs)
	rng := rs.rng
	if seed != nil {
		rng = randutil.New(*seed)
	}
	arm := forced
	if arm == nil {
		arm = c.armFor(unit, rng)
	}
	res, err := c.rank(arm, query, n, rng, rs, dst)
	return res, arm.name, err
}

func (c *Corpus) rank(arm *armState, query string, n int, rng *randutil.RNG, rs *reqScratch, dst []Result) ([]Result, error) {
	if n <= 0 {
		n = DefaultTopN
	}
	arm.requests.Add(1)
	// The merge parameters are read once per request; state-dependent
	// policies (epsilon-decay) observe the live population counters.
	k, r := arm.spec.Params(policy.State{
		Pages:     int(c.pages.Load()),
		ZeroAware: int(c.zeroAware.Load()),
	})
	rs.det, rs.pool = rs.det[:0], rs.pool[:0]
	var pool policy.Source
	if query == "" {
		pool = c.browseCandidates(arm.spec.Selection(), r, n, rng, rs)
	} else {
		pool = c.queryCandidates(arm, r, query, n, rng, rs)
	}
	// The sources are pointers into rs, which box without allocating. The
	// bounded merge fills only the n served slots, reading at most n
	// pool pages however many the source holds.
	merged, fromPool := rs.sc.MergeBounded((*policy.Slice)(&rs.det), pool, n, k, r, rng)
	if cap(dst) < len(merged) {
		dst = make([]Result, 0, len(merged))
	} else {
		dst = dst[:0]
	}
	// The pipeline flows in slot space (birth sequences); the dense table
	// converts each merged slot back to its page id and popularity with
	// two direct loads.
	view := c.table.view()
	for i, seq := range merged {
		res := Result{Promoted: fromPool[i]}
		if slot := slotAt(view, seq); slot != nil {
			res.ID = int(slot.id.Load())
			res.Popularity = math.Float64frombits(slot.pop.Load())
		}
		dst = append(dst, res)
	}
	return dst, nil
}

// mergeSnapshotTops walks the shard snapshots' deterministic top-lists
// in global rank order (rankengine.Less across the current heads),
// calling visit for each entry until every list is exhausted or visit
// returns false. heads must hold len(snaps) zeroed cursors. With a
// handful of shards a linear head scan beats a heap.
func mergeSnapshotTops(snaps []*snapshot, heads []int, visit func(e rankengine.Entry) bool) {
	for {
		best := -1
		for si, sn := range snaps {
			if heads[si] >= len(sn.top) {
				continue
			}
			if best == -1 || rankengine.Less(sn.top[heads[si]], snaps[best].top[heads[best]]) {
				best = si
			}
		}
		if best == -1 {
			return
		}
		e := snaps[best].top[heads[best]]
		heads[best]++
		if !visit(e) {
			return
		}
	}
}

// loadSnapshots fills rs with each shard's current snapshot and zeroed
// merge cursors.
func (c *Corpus) loadSnapshots(rs *reqScratch) []*snapshot {
	snaps := rs.snaps[:0]
	for _, sh := range c.shards {
		snaps = append(snaps, sh.snap.Load())
	}
	rs.snaps = snaps
	for i := range rs.heads {
		rs.heads[i] = 0
	}
	return snaps
}

// browseCandidates assembles the det/pool split for the whole-corpus
// ranking from the shard snapshots into rs.det and returns the promotion
// pool's source: a k-way merge of the deterministic top-lists (stopping
// once n det entries are in hand — promotion can only shorten the
// deterministic need) and the shards' published zero-awareness pools,
// split per the arm policy's selection rule at degree of randomization
// r. Entirely lock-free. Candidates are birth sequences (Entry.BirthDay
// is exactly the page's dense slot); the result assembly converts back
// to page ids. Per request the work is O(n) under the selective and
// promotion-free rules and O(n + r·pool) under the coin rule, never a
// pass over the pool.
func (c *Corpus) browseCandidates(sel policy.Selection, r float64, n int, rng *randutil.RNG, rs *reqScratch) policy.Source {
	snaps := c.loadSnapshots(rs)
	rs.global.reset(snaps)
	appendRanked := func(dst []int, limit int) []int {
		mergeSnapshotTops(snaps, rs.heads, func(e rankengine.Entry) bool {
			dst = append(dst, e.BirthDay)
			return len(dst) < limit
		})
		return dst
	}
	det, pool := rs.det, rs.pool
	var src policy.Source = (*policy.Slice)(&rs.pool)
	switch sel {
	case policy.SelectUnexplored:
		det = appendRanked(det, n)
		src = &rs.global
	case policy.SelectCoin:
		// The uniform rule pools every result page independently with
		// probability r; zero-awareness pages are ordinary bottom-ranked
		// candidates after the ranked ones, in global pool order.
		ranked := appendRanked(rs.ids[:0], n)
		rs.ids = ranked
		for _, id := range ranked {
			if rng.Bernoulli(r) {
				pool = append(pool, id)
			} else {
				det = append(det, id)
			}
		}
		det, pool = splitCoinPool(&rs.global, r, n, det, pool, rng)
	default: // SelectNone: pure popularity order, unexplored tail last.
		det = appendRanked(det, n)
		for i := 0; i < rs.global.n && len(det) < n; i++ {
			det = append(det, rs.global.At(i))
		}
	}
	rs.det, rs.pool = det, pool
	return src
}

// candRef is one candidate in the query scan's bounded top-n heap: its
// popularity and its dense slot (= birth sequence). candLess is the
// same total order the shard treaps maintain — higher popularity first,
// then older (smaller birth); birth sequences are unique, so the old
// id tie-break is unreachable.
type candRef struct {
	pop float64
	seq int
}

func candLess(a, b candRef) bool {
	if a.pop != b.pop {
		return a.pop > b.pop
	}
	return a.seq < b.seq
}

// offer, heapPush and heapFix maintain best as a bounded binary heap
// with the worst-ranked kept candidate at the root (index 0), so
// selecting the servable top-n from m matches is a true O(m log n) —
// comparisons and element moves both — regardless of arrival order. The
// heap is rank-sorted only once, after the scan.

// heapPush appends cr and sifts it up.
func heapPush(best []candRef, cr candRef) []candRef {
	best = append(best, cr)
	i := len(best) - 1
	for i > 0 {
		p := (i - 1) / 2
		// The parent must not rank better than its children (worst at
		// the root).
		if !candLess(best[p], best[i]) {
			break
		}
		best[p], best[i] = best[i], best[p]
		i = p
	}
	return best
}

// offer keeps cr among best, a heap of at most n candidates: pushed
// while there is room, else put in place of the root if it ranks
// better.
func offer(best []candRef, n int, cr candRef) []candRef {
	switch {
	case len(best) < n:
		return heapPush(best, cr)
	case candLess(cr, best[0]):
		best[0] = cr
		heapFix(best)
	}
	return best
}

// heapFix restores the invariant after best[0] was replaced.
func heapFix(best []candRef) {
	i := 0
	for {
		worst, l, r := i, 2*i+1, 2*i+2
		if l < len(best) && candLess(best[worst], best[l]) {
			worst = l
		}
		if r < len(best) && candLess(best[worst], best[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		best[i], best[worst] = best[worst], best[i]
		i = worst
	}
}

// maxCachedPool bounds the zero-awareness candidate list a cache entry
// may carry; a query matching more unexplored pages than this is served
// uncached rather than pinning unbounded memory per entry.
const maxCachedPool = 4096

// heapSort sorts best (a worst-at-root heap maintained by heapPush and
// heapFix) into rank order, best first, in place: repeatedly swap the
// worst to the end and re-fix the shrunken heap. Replaces sort.Slice,
// which boxes its arguments and allocates per call.
func heapSort(best []candRef) {
	for m := len(best) - 1; m > 0; m-- {
		best[0], best[m] = best[m], best[0]
		heapFix(best[:m])
	}
}

// queryCandidates assembles the det/pool split for a query into rs.det
// and returns the promotion pool's source: lock-free conjunctive
// retrieval from the index snapshot (rarest-first merge/gallop
// intersection into pooled scratch), lock-free stat lookups, then a
// single pass that keeps only the best n deterministic candidates via a
// bounded heap (the merge can never consume more). Every selection rule
// streams its candidates through that one pass. The selective rule's
// pool is the query's zero-awareness matches themselves, handed to the
// bounded merge as they are (no copy, no sample); the coin rule flips
// its coin for each candidate as it streams by, and its pooled matches
// go through a uniform reservoir of at most n, all the merge can draw.
//
// The deterministic scan is block-max pruned: posting lists carry a
// popularity upper bound per chunk of at most 128 entries (searchidx
// bounds.go), and once the heap holds n candidates, whole chunks whose
// bound cannot beat the heap minimum are skipped — the intersection
// work, the slot loads and the heap comparisons all vanish with them — so
// the cold path's cost scales with the answer, not the match count. The
// pruned result is identical to the full scan's: candidates stream in
// ascending birth order, rank ties break older-first, and the bounds
// stay sound under the monotone click invariant (see the property test
// in prune_test.go). The selective pool's candidates come from the
// zero-awareness sub-index, which holds exactly the pool-eligible
// pages, rather than from an aware-filter over the full match set. The
// coin rule owes every candidate its coin flip, so it passes no skip
// and the scan visits every chunk.
//
// Under the unexplored-pool and promotion-free selection rules the
// deterministic assembly is memoized in the hot-query cache, keyed by
// (arm, normalized query): arms rank the same candidates under different
// policies, so the arm name prefixes every key and hot-query memoization
// applies per arm. A hit skips retrieval, stat loads and top-K selection
// entirely and runs the merge over the entry's det list and pool with
// fresh per-request randomness — byte-identical to the uncached path at
// the same RNG seed. A miss builds an entry only when the cache admits
// the key (cache.go): a full cache admits a new key on its second miss,
// so a query that never repeats pays no copies and no write lock. The
// coin selection rule (uniform) draws per candidate to form the pool,
// so its assembly is inherently per-request and bypasses the cache.
func (c *Corpus) queryCandidates(arm *armState, r float64, query string, n int, rng *randutil.RNG, rs *reqScratch) policy.Source {
	snap := c.idx.Snapshot()
	sel := arm.spec.Selection()
	det, pool := rs.det, rs.pool
	coinPool := (*policy.Slice)(&rs.pool)
	var key cacheKey
	fill := false
	if c.qcache != nil && sel != policy.SelectCoin {
		key = cacheKey{arm: arm.name, query: searchidx.NormalizeQuery(query)}
		var e *queryCacheEntry
		if e, fill = c.qcache.get(key, n, snap.Epoch(), c.Epoch()); e != nil {
			c.cacheHits.Add(1)
			rs.det = append(det, e.det[:min(n, len(e.det))]...)
			rs.matches = e.pool
			return &rs.matches
		}
		c.cacheMisses.Add(1)
	}
	// Record the epochs before scanning: if the index or any shard
	// changes mid-build, the stored entry is already stale and the next
	// request rebuilds instead of reusing a torn view.
	idxEpoch, srvEpoch := snap.Epoch(), c.Epoch()
	// The postings stream IS the slot stream: each retrieved document id
	// is the page's birth sequence, so a candidate's stats are two direct
	// loads from the dense table — no map lookups, no pointer chasing.
	view := c.table.view()
	best := rs.cand[:0]
	poolAll := rs.poolAll[:0]
	coin, unexplored := sel == policy.SelectCoin, sel == policy.SelectUnexplored
	var skip func(upper float64) bool
	if !coin {
		skip = func(upper float64) bool {
			// Skip only when the heap is full and nothing under the
			// bound can displace its minimum: every unseen candidate is
			// younger than every kept one and rank ties break
			// older-first, so upper == best[0].pop cannot beat it.
			return len(best) == n && upper <= best[0].pop
		}
	}
	poolSeen := 0
	ps := snap.RetrievePruned(query, skip, func(ids []uint32) {
		for _, seq32 := range ids {
			seq := int(seq32)
			slot := slotAt(view, seq)
			if slot == nil {
				continue
			}
			m := slot.meta.Load()
			if !liveMeta(m) {
				continue
			}
			switch {
			case coin && rng.Bernoulli(r):
				// Algorithm R, interleaved with the coin flips exactly as
				// the candidates stream by: a uniform min(n, pooled)
				// subset. The merge draws at most n pool pages, so
				// drawing them from a uniform n-subset is the same law as
				// drawing from every pooled match.
				poolSeen++
				if len(pool) < n {
					pool = append(pool, seq)
				} else if j := rng.Intn(poolSeen); j < n {
					pool[j] = seq
				}
				continue
			case unexplored && m&slotAware == 0:
				// Pool-eligible: enumerated from the sub-index below.
				continue
			}
			best = offer(best, n, candRef{pop: math.Float64frombits(slot.pop.Load()), seq: seq})
		}
	})
	if ps.BlocksSkipped > 0 {
		c.blocksSkipped.Add(uint64(ps.BlocksSkipped))
		c.candidatesPruned.Add(uint64(ps.CandidatesPruned))
	}
	if unexplored {
		// Enumerate exactly today's pool-eligible matches from the
		// zero-awareness sub-index — the same ascending-birth stream
		// the full scan's aware-filter produced, without touching any
		// aware page — re-checking liveness and awareness against the
		// slot. Promotion only ever sets the aware bit, so a page can
		// never appear both here and in det.
		zseqs := c.zidx.Snapshot().RetrieveInto(rs.u32[:0], query)
		rs.u32 = zseqs
		for _, seq32 := range zseqs {
			seq := int(seq32)
			slot := slotAt(view, seq)
			if slot == nil {
				continue
			}
			if m := slot.meta.Load(); !liveMeta(m) || m&slotAware != 0 {
				continue
			}
			poolAll = append(poolAll, seq)
		}
		c.zaCandidates.Add(uint64(len(poolAll)))
	}
	if ps.Candidates == 0 && ps.CandidatesPruned == 0 && len(poolAll) == 0 {
		// Nothing matched at all — same early exit (and same
		// don't-cache-empties behavior) as an empty retrieval.
		rs.poolAll = poolAll
		return coinPool
	}
	heapSort(best)
	rs.cand = best
	for _, cr := range best {
		det = append(det, cr.seq)
	}
	rs.det, rs.pool, rs.poolAll = det, pool, poolAll
	if coin {
		return coinPool
	}
	if fill && len(poolAll) <= maxCachedPool {
		c.qcache.put(key, &queryCacheEntry{
			idxEpoch: idxEpoch,
			srvEpoch: srvEpoch,
			n:        n,
			full:     len(det) < n,
			det:      append([]int(nil), det...),
			pool:     append([]int(nil), poolAll...),
		})
	}
	rs.matches = poolAll
	return &rs.matches
}

// Top returns the deterministic (promotion-free) global top-n explored
// pages by merging the shard snapshots — the ranking a conventional
// engine would serve, and the yardstick for "did feedback promote this
// page into the establishment".
func (c *Corpus) Top(n int) []Stat {
	if n <= 0 {
		n = DefaultTopN
	}
	snaps := make([]*snapshot, 0, len(c.shards))
	for _, sh := range c.shards {
		snaps = append(snaps, sh.snap.Load())
	}
	heads := make([]int, len(snaps))
	out := make([]Stat, 0, n)
	mergeSnapshotTops(snaps, heads, func(e rankengine.Entry) bool {
		out = append(out, Stat{ID: e.ID, Popularity: e.Popularity, Birth: e.BirthDay, Aware: true})
		return len(out) < n
	})
	return out
}

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
			for _, r := range reqs {
				if r.credited {
					sh.credits.Add(-1)
				}
				if r.done != nil {
					r.done <- errKilled
					close(r.done)
				}
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
	for _, r := range reqs {
		if r.credited {
			sh.credits.Add(-1)
		}
		if len(r.add) > 0 || len(r.remove) > 0 {
			sh.pending = append(sh.pending, applyReq{add: r.add, remove: r.remove})
		}
		if r.done != nil {
			r.done <- err
			close(r.done)
		}
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
		if r.credited {
			sh.credits.Add(-1)
		}
		if r.done == nil {
			continue
		}
		if r.lsn != nil {
			*r.lsn = endLSN
		}
		if replErrs != nil && replErrs[ri] != nil {
			// The valid prefix of the replicated batch committed and
			// applied; the error tells the session where continuity
			// broke so it can re-sync from committedLSN+1.
			r.done <- replErrs[ri]
		}
		close(r.done)
	}
	sh.maybeSnapshot()
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

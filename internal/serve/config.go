package serve

import (
	"fmt"
	"time"

	"repro/internal/faultfs"
	"repro/internal/policy"
	"repro/internal/wal"
)

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

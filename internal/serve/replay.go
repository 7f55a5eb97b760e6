// Offline log replay for counterfactual policy evaluation — the paper's
// core question ("which ranking rule wins?") asked of real logged
// traffic instead of synthetic simulation. Replay re-runs a data dir's
// event stream through the same pure event-application path the live
// service runs, evolving popularity and awareness exactly as they
// evolved online, and scores each experiment arm under a policy that
// may DIFFER from the one that logged the traffic.
//
// The estimator is replay-filtering (the rejection approach of the
// offline bandit-evaluation literature, e.g. Li et al. 2011, applied to
// the paper's §4 merge): an event's clicks count for the evaluated
// policy only when that policy could have produced the presentation
// that earned them. A click on an already-aware page is always
// producible — every rule serves the deterministic ranking. A click on
// a zero-awareness page at slot s is producible only when the evaluated
// policy pools such pages (selective, epsilon-decay, uniform), its
// degree of randomization is positive, and s lies in the randomized
// region (s >= k): only a promotion can have put an unexplored page
// there. Replaying under the spec that actually served the traffic
// therefore reproduces the live run's discovery counts and
// time-to-first-click telemetry; swapping in the deterministic rule
// shows the counterfactual loss — every discovery the promotions bought
// becomes unreachable.
//
// The usual caveat applies and is deliberate: the filter cannot invent
// clicks the logging policy never collected, so it measures what a
// candidate policy retains of the logged value, biased toward policies
// similar to the logger. That is exactly the comparison the paper runs
// in simulation, grounded in production logs.
//
// Known limitation: meta.json records each arm's spec as of the LATEST
// serving run (store.Open refreshes it at boot). A KeepLog history that
// spans restarts with CHANGED arm specs is therefore evaluated — and
// LoggedPolicy reported — under the latest specs for all of it; the
// per-epoch spec history a fully faithful multi-run baseline needs
// would have to be written into the log itself. Keep arm specs stable
// across restarts of a data dir whose full history you intend to
// replay, or score runs in separate data dirs.
package serve

import (
	"container/heap"
	"fmt"
	"sync/atomic"

	"repro/internal/policy"
	"repro/internal/store"
	"repro/internal/wal"
)

// ReplayArmReport is one arm's counterfactual scorecard.
type ReplayArmReport struct {
	Name string `json:"name"`
	// Policy is the spec the arm was EVALUATED under; LoggedPolicy is
	// the spec that actually served the logged traffic (from meta.json).
	// They differ exactly when the caller overrode the arm.
	Policy       string `json:"policy"`
	LoggedPolicy string `json:"logged_policy"`
	// Events counts applied events attributed to the arm; Impressions
	// and Clicks are their logged totals.
	Events      uint64 `json:"events"`
	Impressions uint64 `json:"impressions"`
	Clicks      uint64 `json:"clicks"`
	// EligibleClicks are the clicks the evaluated policy could have
	// produced (see the package comment's filter rule).
	EligibleClicks uint64 `json:"eligible_clicks"`
	// Discoveries counts eligible first clicks on zero-awareness pages —
	// the promotions-into-the-establishment the evaluated policy would
	// have achieved on this traffic.
	Discoveries uint64 `json:"discoveries"`
	// MeanTTFCMillis is the mean time from a discovered page's first
	// logged impression to its discovering click, over the arm's
	// eligible discoveries (log timestamps, so same-spec replay
	// reproduces the live telemetry).
	MeanTTFCMillis float64 `json:"mean_ttfc_millis"`

	ttfcSum int64
	ttfcN   uint64
}

// ReplayReport is the outcome of a Replay run.
type ReplayReport struct {
	// Shards is the corpus shard count from the data dir's meta.
	Shards int `json:"shards"`
	// Records is how many WAL records were replayed and scored.
	Records uint64 `json:"records"`
	// FullHistory reports that every shard's log was intact back to LSN
	// 1 (record the corpus with KeepLog / -keep-log for this); when
	// false, BaselinePages pages were restored from snapshots and only
	// the retained tail was scored.
	FullHistory   bool `json:"full_history"`
	BaselinePages int  `json:"baseline_pages"`
	// Pages and Dropped describe the replayed corpus end state.
	Pages   int    `json:"pages"`
	Dropped uint64 `json:"dropped"`
	// Arms holds one scorecard per arm, in meta declaration order.
	Arms []ReplayArmReport `json:"arms"`
}

// replayArm is one arm's evaluation state.
type replayArm struct {
	spec policy.Spec
	rep  *ReplayArmReport
}

// shardCursor streams one shard's log lazily (one WAL segment in
// memory at a time) with the head record decoded, so merging full
// histories needs O(shards × segment) memory, not O(total log).
type shardCursor struct {
	shard int
	rd    *wal.Reader
	rec   walRecord
	lsn   uint64
}

// advance decodes the cursor's next record; ok=false at end of log,
// where the cursor releases its reader.
func (c *shardCursor) advance() (ok bool, err error) {
	lsn, payload, ok, err := c.rd.Next()
	if err != nil || !ok {
		c.rd.Close()
		return false, err
	}
	rec, err := decodeWALRecord(payload)
	if err != nil {
		return false, fmt.Errorf("serve: shard %d lsn %d: %w", c.shard, lsn, err)
	}
	c.rec, c.lsn = rec, lsn
	return true, nil
}

// recHeap orders the shard cursors by (nanos, shard, lsn): the
// group-commit stamps give the global apply order across shards; ties
// (same stamp) break deterministically.
type recHeap []*shardCursor

func (h recHeap) Len() int { return len(h) }
func (h recHeap) Less(i, j int) bool {
	if h[i].rec.nanos != h[j].rec.nanos {
		return h[i].rec.nanos < h[j].rec.nanos
	}
	if h[i].shard != h[j].shard {
		return h[i].shard < h[j].shard
	}
	return h[i].lsn < h[j].lsn
}
func (h recHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *recHeap) Push(x any)   { *h = append(*h, x.(*shardCursor)) }
func (h *recHeap) Pop() any     { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }

// Replay evaluates the data dir's logged event stream. overrides maps
// arm names to replacement policy specs in the compact colon form
// ("selective:1:0.1", "none", ...); arms not overridden are evaluated
// under the spec that logged them. Run it against a stopped server's
// data dir (or a copy): opening the WAL performs torn-tail recovery.
func Replay(dataDir string, overrides map[string]string) (*ReplayReport, error) {
	st, err := store.OpenRead(dataDir)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	meta := st.Meta()
	report := &ReplayReport{Shards: meta.Shards, FullHistory: true}

	arms := make(map[string]*replayArm, len(meta.Arms))
	// Preallocate so the per-arm report pointers below stay valid as the
	// slice fills.
	report.Arms = make([]ReplayArmReport, 0, len(meta.Arms))
	for _, am := range meta.Arms {
		spec := am.Spec
		if ov, ok := overrides[am.Name]; ok {
			spec = ov
		}
		parsed, err := policy.ParseSpec(spec)
		if err != nil {
			return nil, fmt.Errorf("serve: arm %q: %w", am.Name, err)
		}
		report.Arms = append(report.Arms, ReplayArmReport{Name: am.Name, Policy: spec, LoggedPolicy: am.Spec})
		arms[am.Name] = &replayArm{spec: parsed, rep: &report.Arms[len(report.Arms)-1]}
	}
	for name := range overrides {
		if _, ok := arms[name]; !ok {
			return nil, fmt.Errorf("serve: override for unknown arm %q (logged arms: %v)", name, metaArmNames(meta))
		}
	}

	// One event-sourced state per shard, sharing the population counters
	// the state-dependent policies read.
	var pages, zeroAware atomic.Int64
	table := newPageTable()
	states := make([]*shardState, meta.Shards)
	h := make(recHeap, 0, meta.Shards)
	for i := range states {
		states[i] = &shardState{}
		states[i].init(1, false, &pages, &zeroAware, table, nil, nil)
		sh := st.Shard(i)
		snap, err := sh.LatestSnapshot()
		if err != nil {
			return nil, fmt.Errorf("serve: shard %d: %w", i, err)
		}
		info := sh.Recover
		from := uint64(1)
		if info.FirstLSN > 1 {
			// Truncated history: a snapshot must cover the gap; only the
			// retained tail can be scored.
			report.FullHistory = false
			if snap == nil || snap.LSN+1 < info.FirstLSN {
				return nil, fmt.Errorf("serve: shard %d: WAL starts at lsn %d with no covering snapshot — record with KeepLog for full-history replay", i, info.FirstLSN)
			}
			for _, p := range snap.Pages {
				states[i].placePage(p)
			}
			report.BaselinePages += len(snap.Pages)
			from = snap.LSN + 1
		}
		if info.LastLSN+1 < from {
			return nil, fmt.Errorf("serve: shard %d: WAL position %d behind snapshot lsn %d — log files missing", i, info.LastLSN, from-1)
		}
		cur := &shardCursor{shard: i, rd: sh.Log.Reader(from)}
		ok, err := cur.advance()
		if err != nil {
			return nil, err
		}
		if ok {
			h = append(h, cur)
		}
	}

	// K-way merge the lazily-streamed shard logs into global stamp order
	// and score each record as it surfaces.
	heap.Init(&h)
	for h.Len() > 0 {
		cur := h[0]
		report.Records++
		state := states[cur.shard]
		switch cur.rec.kind {
		case recKindAdd:
			state.applyAdd(cur.rec.add)
		case recKindEvent:
			scoreEvent(state, arms, cur.rec.event, cur.rec.nanos, &pages, &zeroAware)
		case recKindRemove:
			state.applyRemove(cur.rec.remove)
		}
		ok, err := cur.advance()
		if err != nil {
			return nil, err
		}
		if ok {
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}

	report.Pages = int(pages.Load())
	for _, s := range states {
		report.Dropped += s.dropped.Load()
	}
	for i := range report.Arms {
		rep := &report.Arms[i]
		if rep.ttfcN > 0 {
			rep.MeanTTFCMillis = float64(rep.ttfcSum) / float64(rep.ttfcN) / 1e6
		}
	}
	return report, nil
}

// scoreEvent applies one logged event to the replayed state (the log is
// what actually happened — state always evolves) and credits the
// attributed arm's counterfactual scorecard through the eligibility
// filter.
func scoreEvent(state *shardState, arms map[string]*replayArm, e Event, nanos int64, pages, zeroAware *atomic.Int64) {
	arm := arms[e.Arm]
	// Eligibility is decided against the PRE-event state: was the page
	// unexplored when this presentation was served, and what merge
	// parameters would the evaluated policy have used for the population
	// as it stood?
	eligible := true
	if arm != nil && e.Clicks > 0 {
		if exists, aware := state.awareOf(e.Page); exists && !aware {
			// Only a promotion can place an unexplored page in a result
			// list: the evaluated policy must pool it (selective variants
			// pool all zero-awareness pages, uniform pools by coin), must
			// randomize at all (r > 0), and the slot must lie in the
			// randomized region (the merge protects positions above k).
			k, r := arm.spec.Params(policy.State{
				Pages:     int(pages.Load()),
				ZeroAware: int(zeroAware.Load()),
			})
			eligible = arm.spec.Selection() != policy.SelectNone && r > 0 && e.Slot >= k
		}
	}
	out := state.applyEvent(e, nanos)
	if !out.applied || arm == nil {
		return
	}
	rep := arm.rep
	rep.Events++
	rep.Impressions += uint64(e.Impressions)
	rep.Clicks += uint64(e.Clicks)
	if e.Clicks == 0 {
		return
	}
	if !eligible {
		return
	}
	rep.EligibleClicks += uint64(e.Clicks)
	if out.discovery {
		rep.Discoveries++
		if out.priorFirstImp > 0 {
			rep.ttfcSum += nanos - out.priorFirstImp
			rep.ttfcN++
		}
	}
}

func metaArmNames(m store.Meta) []string {
	names := make([]string, len(m.Arms))
	for i, a := range m.Arms {
		names[i] = a.Name
	}
	return names
}

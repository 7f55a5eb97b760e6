// Fault-injection and admission-control tests: the durability promise
// under injected WAL faults (a 202 is never issued for a lost batch),
// overload admission (429, nothing enqueued), degraded-mode health
// semantics, click-provenance defenses and per-client rate limiting.
package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/faultfs"
)

// faultyCorpus builds a single-shard durable corpus whose WAL and
// snapshot writes run through a fault injector.
func faultyCorpus(t *testing.T, dir string, inject *faultfs.Injector) *Corpus {
	t.Helper()
	c, err := NewCorpus(Config{
		Shards:     1,
		Seed:       7,
		Durability: Durability{DataDir: dir, FaultInjector: inject},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func getJSON(t *testing.T, h http.Handler, path string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	var body map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatalf("GET %s: bad JSON %q: %v", path, w.Body.String(), err)
	}
	return w, body
}

// TestFsyncFailureNacksFeedback is the durability-promise contract under
// an injected fsync failure: the client gets NO 202 (a 503 instead),
// /healthz reports the shard unhealthy, and once the fault clears a
// retry lands exactly once and recovery reproduces it exactly.
func TestFsyncFailureNacksFeedback(t *testing.T) {
	inject := &faultfs.Injector{}
	dir := t.TempDir()
	c := faultyCorpus(t, dir, inject)
	srv := NewServer(c)
	if err := c.Add(1, "alpha page", 5); err != nil {
		t.Fatal(err)
	}
	c.Sync()

	inject.FailSyncs(-1) // every fsync fails until cleared
	ev := []Event{{Page: 1, Slot: 1, Impressions: 1, Clicks: 1}}
	w := postJSON(t, srv, "/v1/feedback", FeedbackRequest{Events: ev})
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("feedback during fsync failure: code %d body %s, want 503", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if got, _ := c.Page(1); got.Clicks != 0 {
		t.Fatalf("nacked click was applied: %+v", got)
	}
	hw, hb := getJSON(t, srv, "/v1/healthz")
	if hw.Code != http.StatusServiceUnavailable || hb["status"] != "unhealthy" {
		t.Fatalf("healthz during WAL failure: code %d status %v, want 503 unhealthy", hw.Code, hb["status"])
	}
	if st := c.Stats(); st.WALFailures == 0 {
		t.Fatal("WALFailures not counted")
	}

	inject.Clear()
	w = postJSON(t, srv, "/v1/feedback", FeedbackRequest{Events: ev})
	if w.Code != http.StatusAccepted {
		t.Fatalf("feedback after fault cleared: code %d body %s, want 202", w.Code, w.Body.String())
	}
	hw, hb = getJSON(t, srv, "/v1/healthz")
	if hw.Code != http.StatusOK || hb["status"] != "ready" {
		t.Fatalf("healthz after recovery: code %d status %v, want 200 ready", hw.Code, hb["status"])
	}
	got, _ := c.Page(1)
	if got.Clicks != 1 || got.Popularity != 6 {
		t.Fatalf("retried click applied wrong: %+v", got)
	}
	c.Close()

	// The acknowledged state — and nothing from the nacked attempt —
	// must come back after a restart.
	c2, err := NewCorpus(Config{Shards: 1, Seed: 7, Durability: Durability{DataDir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	got, ok := c2.Page(1)
	if !ok || got.Clicks != 1 || got.Popularity != 6 {
		t.Fatalf("recovered state wrong: ok=%v %+v", ok, got)
	}
}

// TestConcurrentFsyncFailureNacksBothBatches posts two feedback batches
// concurrently against a slow, failing disk, so the second either joins
// the first's doomed group or queues behind it. BOTH must be nacked,
// nothing from either may publish, and after the fault clears retries
// land each exactly once — surviving a restart.
func TestConcurrentFsyncFailureNacksBothBatches(t *testing.T) {
	inject := &faultfs.Injector{}
	dir := t.TempDir()
	c := faultyCorpus(t, dir, inject)
	if err := c.Add(1, "alpha page", 5); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(2, "beta page", 4); err != nil {
		t.Fatal(err)
	}
	c.Sync()

	inject.SetLatency(2 * time.Millisecond)
	inject.FailSyncs(-1)
	errs := make(chan error, 2)
	go func() { errs <- c.TryFeedback([]Event{{Page: 1, Slot: 1, Impressions: 1, Clicks: 1}}) }()
	go func() { errs <- c.TryFeedback([]Event{{Page: 2, Slot: 1, Impressions: 1, Clicks: 1}}) }()
	for i := 0; i < 2; i++ {
		if err := <-errs; err == nil {
			t.Fatal("feedback acked through a failed fsync")
		}
	}
	if got, _ := c.Page(1); got.Clicks != 0 {
		t.Fatalf("nacked click published on page 1: %+v", got)
	}
	if got, _ := c.Page(2); got.Clicks != 0 {
		t.Fatalf("nacked click published on page 2: %+v", got)
	}
	if !c.Health().WALFailing {
		t.Fatal("health does not report the failing WAL")
	}

	inject.Clear()
	for _, page := range []int{1, 2} {
		if err := c.TryFeedback([]Event{{Page: page, Slot: 1, Impressions: 1, Clicks: 1}}); err != nil {
			t.Fatalf("retry for page %d after fault cleared: %v", page, err)
		}
	}
	for _, page := range []int{1, 2} {
		if got, _ := c.Page(page); got.Clicks != 1 {
			t.Fatalf("page %d after retry: %+v, want exactly 1 click", page, got)
		}
	}
	c.Close()

	c2, err := NewCorpus(Config{Shards: 1, Seed: 7, Durability: Durability{DataDir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	for _, page := range []int{1, 2} {
		got, ok := c2.Page(page)
		if !ok || got.Clicks != 1 {
			t.Fatalf("recovered page %d: ok=%v %+v, want exactly 1 click", page, ok, got)
		}
	}
}

// TestSerialLoopStillGroupCommits pins what the one-deep commit loop
// must not lose: while one commit sits in a slow sync, every request
// that arrives queues behind it and rides the NEXT commit together. N
// concurrent callers on one shard are all acknowledged by far fewer
// than N commits.
func TestSerialLoopStillGroupCommits(t *testing.T) {
	const callers = 32
	inject := &faultfs.Injector{}
	c := faultyCorpus(t, t.TempDir(), inject)
	defer c.Close()
	if err := c.Add(1, "alpha page", 5); err != nil {
		t.Fatal(err)
	}
	c.Sync()

	before := c.WALCounters()
	inject.SetLatency(5 * time.Millisecond)
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() { errs <- c.TryFeedback([]Event{{Page: 1, Slot: 1, Impressions: 1, Clicks: 1}}) }()
	}
	for i := 0; i < callers; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("caller %d not acknowledged: %v", i, err)
		}
	}
	inject.SetLatency(0)
	after := c.WALCounters()
	if got := after.Records - before.Records; got != callers {
		t.Fatalf("%d records committed, want %d", got, callers)
	}
	if commits := after.Commits - before.Commits; commits >= callers/2 {
		t.Fatalf("%d commits for %d concurrent requests: the loop is not group-committing", commits, callers)
	}
	if got, _ := c.Page(1); got.Clicks != callers {
		t.Fatalf("page after %d acked clicks: %+v", callers, got)
	}
}

// TestDiskFullNacksFeedback: ENOSPC on the WAL write path must behave
// exactly like an fsync failure — nack, no silent ack.
func TestDiskFullNacksFeedback(t *testing.T) {
	inject := &faultfs.Injector{}
	c := faultyCorpus(t, t.TempDir(), inject)
	defer c.Close()
	if err := c.Add(1, "alpha page", 5); err != nil {
		t.Fatal(err)
	}
	c.Sync()
	inject.SetDiskFull(true)
	err := c.TryFeedback([]Event{{Page: 1, Slot: 1, Impressions: 1, Clicks: 1}})
	if err == nil || errors.Is(err, ErrOverloaded) {
		t.Fatalf("disk-full feedback: err=%v, want a durability error", err)
	}
	inject.SetDiskFull(false)
	if err := c.TryFeedback([]Event{{Page: 1, Slot: 1, Impressions: 1, Clicks: 1}}); err != nil {
		t.Fatalf("feedback after disk freed: %v", err)
	}
	if got, _ := c.Page(1); got.Clicks != 1 {
		t.Fatalf("click count after nack+retry: %+v, want exactly 1", got)
	}
}

// TestOverloadRejectsWith429: when a shard's feedback queue is full,
// TryFeedback (and the HTTP front end) must refuse with 429 and enqueue
// NOTHING — admission is all-or-nothing.
func TestOverloadRejectsWith429(t *testing.T) {
	inject := &faultfs.Injector{}
	c, err := NewCorpus(Config{
		Shards:     1,
		QueueLen:   1,
		Seed:       7,
		Durability: Durability{DataDir: t.TempDir(), FaultInjector: inject},
		Limits:     Limits{DegradedHold: time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := NewServer(c)
	if err := c.Add(1, "alpha page", 5); err != nil {
		t.Fatal(err)
	}
	c.Sync()

	// Stall the apply loop mid-commit so in-flight batches pile up.
	inject.SetLatency(300 * time.Millisecond)
	release := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() { release <- c.TryFeedback([]Event{{Page: 1, Slot: 1, Impressions: 1}}) }()
		time.Sleep(50 * time.Millisecond) // let it enqueue / start committing
	}
	w := postJSON(t, srv, "/v1/feedback", FeedbackRequest{Events: []Event{{Page: 1, Slot: 1, Impressions: 1}}})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("feedback into full queue: code %d body %s, want 429", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	inject.SetLatency(0)
	for i := 0; i < 2; i++ {
		if err := <-release; err != nil {
			t.Fatalf("stalled batch %d: %v", i, err)
		}
	}
	c.Sync()
	st := c.Stats()
	if st.FeedbackRejected == 0 {
		t.Fatal("FeedbackRejected not counted")
	}
	// All-or-nothing: only the two admitted impressions applied.
	if got, _ := c.Page(1); got.Impressions != 2 {
		t.Fatalf("impressions after overload: %+v, want exactly the 2 admitted", got)
	}
	if !c.Degraded() {
		t.Fatal("overload did not enter degraded mode")
	}
	// Degraded is a serving mode, not an outage: /healthz stays 200.
	hw, hb := getJSON(t, srv, "/v1/healthz")
	if hw.Code != http.StatusOK || hb["status"] != "degraded" {
		t.Fatalf("healthz while degraded: code %d status %v, want 200 degraded", hw.Code, hb["status"])
	}
}

// TestProvenanceQuorum: a zero-awareness page clicked by one unit (a
// self-click campaign) stays unexplored; distinct clickers promote it.
func TestProvenanceQuorum(t *testing.T) {
	c, err := NewCorpus(Config{
		Shards: 1,
		Seed:   7,
		Limits: Limits{Provenance: ProvenanceConfig{MinDistinctClickers: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Add(1, "gem page", 0); err != nil {
		t.Fatal(err)
	}
	c.Sync()

	// One unit clicking ten times — and an anonymous flood — build no
	// quorum: every click is held, the page stays in the pool.
	for i := 0; i < 10; i++ {
		c.Feedback([]Event{{Page: 1, Slot: 1, Impressions: 1, Clicks: 1, Unit: "fraudster"}})
		c.Feedback([]Event{{Page: 1, Slot: 1, Impressions: 1, Clicks: 1}})
	}
	c.Sync()
	if got, _ := c.Page(1); got.Aware || got.Clicks != 0 {
		t.Fatalf("fraud clicks laundered page out of the pool: %+v", got)
	}
	if st := c.Stats(); st.ProvenanceHeld == 0 {
		t.Fatal("ProvenanceHeld not counted")
	}

	// A second distinct unit completes the quorum: its click applies and
	// promotes.
	c.Feedback([]Event{{Page: 1, Slot: 1, Impressions: 1, Clicks: 1, Unit: "honest"}})
	c.Sync()
	if got, _ := c.Page(1); !got.Aware || got.Clicks != 1 {
		t.Fatalf("quorum click did not promote: %+v", got)
	}
}

// TestProvenanceClickCap: one unit's clicks on one page are capped per
// window; other units and other pages are unaffected.
func TestProvenanceClickCap(t *testing.T) {
	c, err := NewCorpus(Config{
		Shards: 1,
		Seed:   7,
		Limits: Limits{Provenance: ProvenanceConfig{UnitPageClickCap: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Add(1, "page one", 5); err != nil {
		t.Fatal(err)
	}
	c.Sync()
	for i := 0; i < 10; i++ {
		c.Feedback([]Event{{Page: 1, Slot: 1, Impressions: 1, Clicks: 1, Unit: "spammer"}})
	}
	c.Feedback([]Event{{Page: 1, Slot: 1, Impressions: 1, Clicks: 1, Unit: "honest"}})
	c.Sync()
	if got, _ := c.Page(1); got.Clicks != 4 { // 3 capped + 1 honest
		t.Fatalf("clicks after cap: %+v, want 4", got)
	}
	if st := c.Stats(); st.ProvenanceCapped != 7 {
		t.Fatalf("ProvenanceCapped = %d, want 7", st.ProvenanceCapped)
	}
}

// TestRateLimiter: per-client buckets limit both /rank and /feedback,
// keyed by unit, and the rejection is counted in /stats.
func TestRateLimiter(t *testing.T) {
	c, err := NewCorpus(Config{
		Shards: 1,
		Seed:   7,
		Limits: Limits{
			RateLimitRPS:   0.001, // effectively: burst only
			RateLimitBurst: 2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := NewServer(c)
	if err := c.Add(1, "alpha page", 5); err != nil {
		t.Fatal(err)
	}
	c.Sync()

	codes := make([]int, 3)
	for i := range codes {
		codes[i] = postJSON(t, srv, "/v1/rank", RankRequest{Unit: "u1"}).Code
	}
	if codes[0] != 200 || codes[1] != 200 || codes[2] != http.StatusTooManyRequests {
		t.Fatalf("rank codes %v, want [200 200 429]", codes)
	}
	// A different unit owns a different bucket.
	if code := postJSON(t, srv, "/v1/rank", RankRequest{Unit: "u2"}).Code; code != 200 {
		t.Fatalf("distinct unit was limited: %d", code)
	}
	_, stats := getJSON(t, srv, "/v1/stats")
	if stats["rate_limited_429"].(float64) < 1 {
		t.Fatalf("rate_limited_429 = %v, want >= 1", stats["rate_limited_429"])
	}
}

// TestRemoveSurvivesRecovery: a removal is logged like any mutation —
// the page must stay gone across snapshots, crashes and replay.
func TestRemoveSurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCorpus(Config{Shards: 2, Seed: 7, Durability: Durability{DataDir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := c.Add(i, "churn page", float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	c.Sync()
	if !c.Remove(3) {
		t.Fatal("Remove(3) = false")
	}
	if c.Remove(3) {
		t.Fatal("second Remove(3) = true")
	}
	c.Sync()
	if _, ok := c.Page(3); ok {
		t.Fatal("removed page still served")
	}
	if res, _ := c.RankSeeded("churn", 10, 1); len(res) != 7 {
		t.Fatalf("rank after remove: %d results, want 7", len(res))
	}
	c.Kill() // crash: recovery must replay the remove record

	c2, err := NewCorpus(Config{Shards: 2, Seed: 7, Durability: Durability{DataDir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, ok := c2.Page(3); ok {
		t.Fatal("removed page resurrected by recovery")
	}
	if st := c2.Stats(); st.Pages != 7 {
		t.Fatalf("recovered pages = %d, want 7", st.Pages)
	}
	if res, _ := c2.RankSeeded("churn", 10, 1); len(res) != 7 {
		t.Fatalf("rank after recovery: %d results, want 7", len(res))
	}
}

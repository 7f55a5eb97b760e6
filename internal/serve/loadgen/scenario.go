// Chaos scenario harness: named adversarial and overload scenarios run
// against a real service instance (own corpus, own HTTP server, the
// AckRecorder ledgering every 202) with gates evaluated inside the
// scenario. Each scenario reports the loadgen measurements, shed/429/
// recovery counters, and the per-slot Kendall-tau rank divergence
// between the control and exploring arms — divergence is the experiment
// working, so it is reported, while the gates live on counters that
// have a right answer:
//
//   - click-fraud: a coordinated self-click campaign tries to launder a
//     junk page out of the zero-awareness pool. Defenses off, the first
//     fraud click promotes it into the deterministic ranking; defenses
//     on, the junk page's discovery count must stay 0 while honest
//     discoveries stay within 10% of the no-attack baseline.
//   - flash-crowd: a traffic spike hammers one query. Memory must stay
//     bounded (admission control), /rank must keep serving (possibly
//     stale) under a gated p99, and every refused feedback batch must
//     have gotten a 429 — acked events equal applied events exactly.
//   - churn: pages are added and removed against the search index's
//     live term table while traffic flows; removed pages must stay gone.
//   - disk-storm: a mid-run fsync-error + disk-full storm, then a crash;
//     recovery must hold every acknowledged event (at-least-once).
//   - leader-kill: a 3-node replicated cluster loses a shard leader to
//     SIGKILL mid-run; a follower must be promoted, no 202-acknowledged
//     feedback may be lost, the write outage must stay bounded, and the
//     pre/post-failover rankings must stay Kendall-tau close.
package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/faultfs"
	"repro/internal/policy"
	"repro/internal/serve"
)

// ScenarioOptions parameterizes a chaos scenario run.
type ScenarioOptions struct {
	// Short runs the scaled-down variant (CI smoke / go test -short).
	Short bool
	// Seed drives the scenario's randomness (default 1).
	Seed uint64
	// Defenses enables the admission defenses under attack scenarios
	// (click-fraud: provenance checks). The undefended variant exists to
	// demonstrate the attack actually works.
	Defenses bool
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...any)
}

func (o ScenarioOptions) withDefaults() ScenarioOptions {
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

func (o ScenarioOptions) logf(format string, args ...any) {
	if o.Log != nil {
		o.Log(format, args...)
	}
}

// pick selects the short or full variant of a scale parameter.
func (o ScenarioOptions) pick(short, full int) int {
	if o.Short {
		return short
	}
	return full
}

// ScenarioResult is one scenario run's outcome. Gates that failed are
// listed in Failures; an empty list is a pass.
type ScenarioResult struct {
	Name string
	// Load is the honest traffic's loadgen report (retries, backoff,
	// 429/503 counts included).
	Load *Report
	// Divergence compares the control and exploring arms' rankings on
	// the scenario's query after the run.
	Divergence *DivergenceReport

	// Acked vs applied: the 202 ledger against corpus accounting.
	AckedImpressions, AckedClicks     int64
	AppliedImpressions, AppliedClicks uint64

	// Shed / overload / fault counters from the service.
	FeedbackRejected uint64 // batches refused with 429 (queue full)
	StaleServed      uint64 // rank requests served stale while degraded
	ShedRebuilds     uint64 // cold rebuilds skipped while degraded
	WALFailures      uint64 // nacked WAL commits
	ProvenanceHeld   uint64 // clicks held awaiting quorum
	ProvenanceCapped uint64 // clicks dropped by the per-unit cap
	Degraded         bool   // degraded mode at run end

	// Click-fraud accounting.
	JunkDiscovered      bool  // junk page laundered into the ranking
	JunkClicks          int64 // clicks the junk page retained
	HonestDiscoveries   int   // gems promoted in the attack run
	BaselineDiscoveries int   // gems promoted with no attack

	// Churn accounting.
	RemovedResurrected int // removed pages still served at run end

	// Disk-storm accounting.
	RecoveredExactly bool // recovery held every acknowledged event

	// Leader-kill accounting.
	KilledNode   string        // the SIGKILLed leader
	PromotedNode string        // the follower that won the election
	OutageWindow time.Duration // kill → first 202 write on a survivor
	AckedLost    int           // acked pages under-counted after failover (must be 0)

	Failures []string
}

// Pass reports whether every gate held.
func (r *ScenarioResult) Pass() bool { return len(r.Failures) == 0 }

func (r *ScenarioResult) failf(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// String renders the result as a compact block.
func (r *ScenarioResult) String() string {
	var b strings.Builder
	verdict := "PASS"
	if !r.Pass() {
		verdict = "FAIL"
	}
	fmt.Fprintf(&b, "scenario %s: %s\n", r.Name, verdict)
	if r.Load != nil {
		fmt.Fprintf(&b, "%s\n", r.Load.String())
	}
	fmt.Fprintf(&b, "acked %d imp / %d clk, applied %d imp / %d clk\n",
		r.AckedImpressions, r.AckedClicks, r.AppliedImpressions, r.AppliedClicks)
	fmt.Fprintf(&b, "shed: rejected %d, stale served %d, rebuilds shed %d, wal failures %d, degraded %v\n",
		r.FeedbackRejected, r.StaleServed, r.ShedRebuilds, r.WALFailures, r.Degraded)
	if r.ProvenanceHeld > 0 || r.ProvenanceCapped > 0 {
		fmt.Fprintf(&b, "provenance: held %d, capped %d\n", r.ProvenanceHeld, r.ProvenanceCapped)
	}
	if r.KilledNode != "" {
		fmt.Fprintf(&b, "failover: killed %s, promoted %s, write outage %v, acked pages lost %d\n",
			r.KilledNode, r.PromotedNode, r.OutageWindow.Round(time.Millisecond), r.AckedLost)
	}
	if r.Divergence != nil {
		fmt.Fprintf(&b, "%s\n", r.Divergence.String())
	}
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "FAIL: %s\n", f)
	}
	return strings.TrimRight(b.String(), "\n")
}

// ScenarioNames lists the runnable scenarios.
func ScenarioNames() []string {
	return []string{"click-fraud", "flash-crowd", "churn", "disk-storm", "leader-kill"}
}

// RunScenario runs one named scenario to completion and evaluates its
// gates. The error covers harness problems (unknown name, setup
// failure); gate violations are reported in the result's Failures.
func RunScenario(name string, opts ScenarioOptions) (*ScenarioResult, error) {
	opts = opts.withDefaults()
	switch name {
	case "click-fraud":
		return runClickFraud(opts)
	case "flash-crowd":
		return runFlashCrowd(opts)
	case "churn":
		return runChurn(opts)
	case "disk-storm":
		return runDiskStorm(opts)
	case "leader-kill":
		return runLeaderKill(opts)
	default:
		return nil, fmt.Errorf("loadgen: unknown scenario %q (have %s)",
			name, strings.Join(ScenarioNames(), ", "))
	}
}

// scenarioArms is the two-arm layout every scenario serves: a
// deterministic control against the paper's selective exploration.
func scenarioArms() []serve.Arm {
	return []serve.Arm{
		{Name: "control", Policy: policy.Spec{Rule: policy.RuleDeterministic}, Weight: 1},
		{Name: "explore", Policy: policy.Spec{Rule: policy.RuleSelective, K: 1, R: 0.3}, Weight: 1},
	}
}

// fillCounters copies the service-side counters into the result.
func (r *ScenarioResult) fillCounters(c *serve.Corpus, rec *AckRecorder) {
	st := c.Stats()
	r.AppliedImpressions, r.AppliedClicks = st.ImpressionsApplied, st.ClicksApplied
	r.FeedbackRejected = st.FeedbackRejected
	r.StaleServed = st.StaleServed
	r.ShedRebuilds = st.ShedRebuilds
	r.WALFailures = st.WALFailures
	r.ProvenanceHeld = st.ProvenanceHeld
	r.ProvenanceCapped = st.ProvenanceCapped
	r.Degraded = st.Degraded
	if rec != nil {
		r.AckedImpressions, r.AckedClicks = rec.Totals()
	}
}

// fetchRanking fetches one seeded, arm-forced ranking and returns the
// result ids in served order.
func fetchRanking(baseURL, query, arm string, n int, seed uint64) ([]int, error) {
	body, err := json.Marshal(serve.RankRequest{Query: query, N: n, Arm: arm, Seed: &seed})
	if err != nil {
		return nil, err
	}
	resp, err := client.Post(baseURL+"/v1/rank", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("loadgen: ranking probe status %d", resp.StatusCode)
	}
	var rr serve.RankResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		return nil, err
	}
	ids := make([]int, len(rr.Results))
	for i, it := range rr.Results {
		ids[i] = it.ID
	}
	return ids, nil
}

// probeDivergence collects probe pairs from the two arms (forced arm,
// shared seed per pair, so both rank the same corpus state with the
// same randomness budget) and aggregates their rank divergence.
func probeDivergence(baseURL, query string, n, probes int, seed uint64) (*DivergenceReport, error) {
	as := make([][]int, 0, probes)
	bs := make([][]int, 0, probes)
	for p := 0; p < probes; p++ {
		a, err := fetchRanking(baseURL, query, "control", n, seed+uint64(p))
		if err != nil {
			return nil, err
		}
		b, err := fetchRanking(baseURL, query, "explore", n, seed+uint64(p))
		if err != nil {
			return nil, err
		}
		as, bs = append(as, a), append(bs, b)
	}
	return Divergence("control", "explore", as, bs), nil
}

// postFeedback posts one raw feedback batch, returning the HTTP status
// (0 on transport error).
func postFeedback(baseURL string, events []serve.Event) int {
	body, err := json.Marshal(serve.FeedbackRequest{Events: events})
	if err != nil {
		return 0
	}
	resp, err := client.Post(baseURL+"/v1/feedback", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0
	}
	resp.Body.Close()
	return resp.StatusCode
}

// --- click-fraud -----------------------------------------------------

const (
	fraudJunkID   = 666
	fraudTopic    = "gadgets review"
	fraudGemFirst = 990
	fraudGemCount = 6
)

// fraudCorpus plants the click-fraud fixture: entrenched mediocre
// pages, honest zero-awareness gems, and one zero-awareness junk page
// the attacker will try to launder.
func fraudCorpus(defenses bool, seed uint64) (*serve.Corpus, error) {
	cfg := serve.Config{Shards: 2, Seed: seed, Arms: scenarioArms()}
	if defenses {
		cfg.Limits.Provenance = serve.ProvenanceConfig{
			MinDistinctClickers: 2,
			UnitPageClickCap:    3,
			Window:              time.Minute,
		}
	}
	c, err := serve.NewCorpus(cfg)
	if err != nil {
		return nil, err
	}
	for i := 0; i < 24; i++ {
		if err := c.Add(i, fmt.Sprintf("%s page%d", fraudTopic, i), float64(24-i)*0.05); err != nil {
			return nil, err
		}
	}
	for g := 0; g < fraudGemCount; g++ {
		if err := c.Add(fraudGemFirst+g, fmt.Sprintf("%s gem%d", fraudTopic, g), 0); err != nil {
			return nil, err
		}
	}
	if err := c.Add(fraudJunkID, fraudTopic+" junk spam", 0); err != nil {
		return nil, err
	}
	c.Sync()
	return c, nil
}

// honestLoad drives the scenario's honest traffic: gem-loving users on
// the fraud topic.
func honestLoad(baseURL string, opts ScenarioOptions) (*Report, error) {
	return Run(Config{
		BaseURL:  baseURL,
		Workers:  3,
		Requests: opts.pick(600, 2000),
		N:        15,
		Units:    24,
		Seed:     opts.Seed + 100,
		Queries:  []string{fraudTopic},
		Quality: func(id int) float64 {
			if id >= fraudGemFirst && id < fraudGemFirst+fraudGemCount {
				return 0.95
			}
			if id == fraudJunkID {
				return 0 // honest users never click the junk page
			}
			return 0.03
		},
	})
}

// countGems returns how many planted gems were promoted out of the
// zero-awareness pool.
func countGems(c *serve.Corpus) int {
	n := 0
	for g := 0; g < fraudGemCount; g++ {
		if st, ok := c.Page(fraudGemFirst + g); ok && st.Aware {
			n++
		}
	}
	return n
}

func runClickFraud(opts ScenarioOptions) (*ScenarioResult, error) {
	r := &ScenarioResult{Name: "click-fraud"}

	// Baseline: identical corpus, identical honest traffic, no attack.
	// Gem promotions here are what the defended run must preserve.
	opts.logf("click-fraud: baseline run (no attack, defenses=%v)", opts.Defenses)
	base, err := fraudCorpus(opts.Defenses, opts.Seed)
	if err != nil {
		return nil, err
	}
	baseSrv := httptest.NewServer(serve.NewServer(base))
	if _, err := honestLoad(baseSrv.URL, opts); err != nil {
		baseSrv.Close()
		base.Close()
		return nil, err
	}
	base.Sync()
	r.BaselineDiscoveries = countGems(base)
	baseSrv.Close()
	base.Close()

	// Attack run: the same honest traffic with a concurrent self-click
	// campaign — one identity plus anonymous traffic hammering the junk
	// page, the exact shape the provenance quorum discounts.
	opts.logf("click-fraud: attack run (defenses=%v)", opts.Defenses)
	c, err := fraudCorpus(opts.Defenses, opts.Seed)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	rec := NewAckRecorder(serve.NewServer(c))
	srv := httptest.NewServer(rec)
	defer srv.Close()

	stop := make(chan struct{})
	var attack sync.WaitGroup
	attack.Add(1)
	go func() {
		defer attack.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			postFeedback(srv.URL, []serve.Event{
				{Page: fraudJunkID, Slot: 1, Impressions: 1, Clicks: 1, Unit: "fraud-bot"},
				{Page: fraudJunkID, Slot: 1, Impressions: 1, Clicks: 1}, // anonymous
			})
			time.Sleep(2 * time.Millisecond)
		}
	}()
	r.Load, err = honestLoad(srv.URL, opts)
	close(stop)
	attack.Wait()
	if err != nil {
		return nil, err
	}
	c.Sync()

	junk, _ := c.Page(fraudJunkID)
	r.JunkDiscovered = junk.Aware
	r.JunkClicks = junk.Clicks
	r.HonestDiscoveries = countGems(c)
	r.fillCounters(c, rec)
	if r.Divergence, err = probeDivergence(srv.URL, fraudTopic, 15, 8, opts.Seed); err != nil {
		return nil, err
	}

	if opts.Defenses {
		// The defense gates: junk stays in the pool with zero retained
		// clicks, and the attack costs honest discovery at most 10%.
		if r.JunkDiscovered {
			r.failf("junk page was laundered out of the zero-awareness pool (%d clicks)", r.JunkClicks)
		}
		if r.JunkClicks != 0 {
			r.failf("junk page retained %d fraud clicks", r.JunkClicks)
		}
		if 10*r.HonestDiscoveries < 9*r.BaselineDiscoveries {
			r.failf("honest discoveries %d fell below 90%% of the no-attack baseline %d",
				r.HonestDiscoveries, r.BaselineDiscoveries)
		}
		if r.ProvenanceHeld == 0 {
			r.failf("defenses on but no clicks were held — the attack never engaged them")
		}
	} else if !r.JunkDiscovered {
		// Undefended, the attack must actually work, or the defended
		// variant proves nothing.
		r.failf("undefended fraud campaign failed to launder the junk page")
	}
	return r, nil
}

// --- flash-crowd -----------------------------------------------------

func runFlashCrowd(opts ScenarioOptions) (*ScenarioResult, error) {
	r := &ScenarioResult{Name: "flash-crowd"}
	inject := &faultfs.Injector{}
	dir, err := scenarioDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	c, err := serve.NewCorpus(serve.Config{
		Shards:     2,
		Seed:       opts.Seed,
		Arms:       scenarioArms(),
		Durability: serve.Durability{DataDir: dir, FaultInjector: inject},
		QueueLen:   1, // tiny queue: the crowd must hit admission control
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	topic := "breaking story"
	for i := 0; i < 30; i++ {
		pop := float64(30-i) * 0.05
		if i%6 == 0 {
			pop = 0
		}
		if err := c.Add(i, fmt.Sprintf("%s page%d", topic, i), pop); err != nil {
			return nil, err
		}
	}
	c.Sync()
	rec := NewAckRecorder(serve.NewServer(c))
	srv := httptest.NewServer(rec)
	defer srv.Close()

	// The spike: every worker on ONE query, slowed WAL commits so the
	// feedback queues actually fill. Bounded queues turn the overflow
	// into 429s; the loadgen clients retry with backoff.
	opts.logf("flash-crowd: %d workers on one query, slowed WAL", 8)
	inject.SetLatency(10 * time.Millisecond)
	r.Load, err = Run(Config{
		BaseURL:       srv.URL,
		Workers:       8,
		Requests:      opts.pick(600, 2400),
		N:             12,
		Units:         64,
		Seed:          opts.Seed + 7,
		Query:         topic,
		FeedbackBatch: 5,
		RetryBackoff:  5 * time.Millisecond,
		Quality:       func(id int) float64 { return 0.2 },
	})
	if err != nil {
		return nil, err
	}
	inject.SetLatency(0)
	c.Sync()
	r.fillCounters(c, rec)
	if r.Divergence, err = probeDivergence(srv.URL, topic, 12, 8, opts.Seed); err != nil {
		return nil, err
	}

	// Gates. Shed rate: the tiny queue must actually have refused load
	// (otherwise the scenario exercised nothing).
	if r.FeedbackRejected == 0 && r.Load.Rejected429 == 0 {
		r.failf("flash crowd never tripped admission control")
	}
	// No silent drops: every event the service acked with 202 was
	// applied, and nothing else was — exact equality, because a refused
	// batch is all-or-nothing refused.
	if int64(r.AppliedImpressions) != r.AckedImpressions {
		r.failf("applied impressions %d != acked %d (silent drop or phantom apply)",
			r.AppliedImpressions, r.AckedImpressions)
	}
	if int64(r.AppliedClicks) != r.AckedClicks {
		r.failf("applied clicks %d != acked %d", r.AppliedClicks, r.AckedClicks)
	}
	// Rank keeps serving under the spike: p99 gated generously (CI
	// machines vary), and the run must complete its requests.
	if p99 := r.Load.P99; p99 > 500*time.Millisecond {
		r.failf("rank p99 %v exceeded 500ms under the flash crowd", p99)
	}
	if r.Load.Requests == 0 {
		r.failf("no rank requests completed")
	}
	return r, nil
}

// --- churn -----------------------------------------------------------

func runChurn(opts ScenarioOptions) (*ScenarioResult, error) {
	r := &ScenarioResult{Name: "churn"}
	dir, err := scenarioDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	c, err := serve.NewCorpus(serve.Config{
		Shards:     2,
		Seed:       opts.Seed,
		Arms:       scenarioArms(),
		Durability: serve.Durability{DataDir: dir},
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	topic := "churny topic"
	const initial = 40
	for i := 0; i < initial; i++ {
		pop := float64(initial-i) * 0.04
		if i%8 == 0 {
			pop = 0
		}
		if err := c.Add(i, fmt.Sprintf("%s page%d", topic, i), pop); err != nil {
			return nil, err
		}
	}
	c.Sync()
	rec := NewAckRecorder(serve.NewServer(c))
	srv := httptest.NewServer(rec)
	defer srv.Close()

	// The churner: adds fresh pages and removes existing ones against
	// the search index's live term table while traffic flows.
	opts.logf("churn: add/remove against the live term table under load")
	stop := make(chan struct{})
	var churn sync.WaitGroup
	var mu sync.Mutex
	removed := map[int]bool{}
	added, removals := 0, 0
	churn.Add(1)
	go func() {
		defer churn.Done()
		next := 10000
		victim := 1 // page 0 kept stable; every odd-indexed page is fair game
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := c.Add(next, fmt.Sprintf("%s fresh%d", topic, next), 0); err == nil {
				mu.Lock()
				added++
				mu.Unlock()
			}
			next++
			if victim < initial {
				if c.Remove(victim) {
					mu.Lock()
					removed[victim] = true
					removals++
					mu.Unlock()
				}
				victim += 2
			}
			time.Sleep(3 * time.Millisecond)
		}
	}()
	r.Load, err = Run(Config{
		BaseURL:  srv.URL,
		Workers:  3,
		Requests: opts.pick(500, 1600),
		N:        12,
		Seed:     opts.Seed + 13,
		Queries:  []string{topic},
		Quality:  func(id int) float64 { return 0.15 },
	})
	close(stop)
	churn.Wait()
	if err != nil {
		return nil, err
	}
	c.Sync()
	r.fillCounters(c, rec)
	if r.Divergence, err = probeDivergence(srv.URL, topic, 12, 8, opts.Seed); err != nil {
		return nil, err
	}

	// Gates: removed pages must be gone from both the page store and
	// the served rankings; the page count must balance.
	mu.Lock()
	defer mu.Unlock()
	for id := range removed {
		if _, ok := c.Page(id); ok {
			r.RemovedResurrected++
		}
	}
	results, rerr := c.RankSeeded(topic, 50, opts.Seed)
	if rerr != nil {
		return nil, rerr
	}
	for _, res := range results {
		if removed[res.ID] {
			r.RemovedResurrected++
		}
	}
	if r.RemovedResurrected > 0 {
		r.failf("%d removed pages still served", r.RemovedResurrected)
	}
	if got, want := c.Stats().Pages, initial+added-removals; got != want {
		r.failf("page count %d after churn, want %d (%d added, %d removed)",
			got, want, added, removals)
	}
	if r.Load.Errors > 0 {
		r.failf("churn load run had %d errors", r.Load.Errors)
	}
	return r, nil
}

// --- disk-storm ------------------------------------------------------

func runDiskStorm(opts ScenarioOptions) (*ScenarioResult, error) {
	r := &ScenarioResult{Name: "disk-storm"}
	inject := &faultfs.Injector{}
	dir, err := scenarioDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg := serve.Config{
		Shards:     2,
		Seed:       opts.Seed,
		Arms:       scenarioArms(),
		Durability: serve.Durability{DataDir: dir, KeepLog: true, FaultInjector: inject},
	}
	c, err := serve.NewCorpus(cfg)
	if err != nil {
		return nil, err
	}
	topic := "stormy topic"
	const pages = 30
	for i := 0; i < pages; i++ {
		pop := float64(pages-i) * 0.05
		if i%7 == 0 {
			pop = 0
		}
		if err := c.Add(i, fmt.Sprintf("%s page%d", topic, i), pop); err != nil {
			c.Close()
			return nil, err
		}
	}
	c.Sync()
	rec := NewAckRecorder(serve.NewServer(c))
	srv := httptest.NewServer(rec)

	// The storm: mid-run, fsyncs start failing, then the disk fills,
	// then it clears. Every affected batch must be nacked with 503 —
	// the loadgen clients retry with backoff and report what they saw.
	var storm sync.WaitGroup
	storm.Add(1)
	go func() {
		defer storm.Done()
		time.Sleep(80 * time.Millisecond)
		opts.logf("disk-storm: fsync failures begin")
		inject.FailSyncs(-1)
		time.Sleep(150 * time.Millisecond)
		opts.logf("disk-storm: disk full")
		inject.Clear()
		inject.SetDiskFull(true)
		time.Sleep(150 * time.Millisecond)
		opts.logf("disk-storm: storm clears")
		inject.SetDiskFull(false)
	}()
	r.Load, err = Run(Config{
		BaseURL:       srv.URL,
		Workers:       4,
		Requests:      opts.pick(800, 2400),
		N:             12,
		Seed:          opts.Seed + 23,
		Query:         topic,
		FeedbackBatch: 3,
		RetryBackoff:  10 * time.Millisecond,
		Quality:       func(id int) float64 { return 0.25 },
	})
	storm.Wait()
	if err != nil {
		srv.Close()
		c.Close()
		return nil, err
	}
	c.Sync()
	r.fillCounters(c, rec)
	if r.Divergence, err = probeDivergence(srv.URL, topic, 12, 8, opts.Seed); err != nil {
		srv.Close()
		c.Close()
		return nil, err
	}
	ackedImps, ackedClks := rec.Acked()
	srv.Close()
	c.Kill() // crash on top of the storm: recovery gets no courtesy snapshot

	// Recovery: every acknowledged event must be present (at-least-once
	// under multi-shard retry, so >=, never <).
	cfg.Durability.FaultInjector = nil
	rc, err := serve.NewCorpus(cfg)
	if err != nil {
		r.failf("recovery after storm failed: %v", err)
		return r, nil
	}
	defer rc.Close()
	r.RecoveredExactly = true
	for page, clicks := range ackedClks {
		st, ok := rc.Page(page)
		if !ok {
			r.RecoveredExactly = false
			r.failf("acknowledged page %d missing after recovery", page)
			continue
		}
		if st.Clicks < clicks {
			r.RecoveredExactly = false
			r.failf("page %d recovered %d clicks, %d were acknowledged", page, st.Clicks, clicks)
		}
		if st.Impressions < ackedImps[page] {
			r.RecoveredExactly = false
			r.failf("page %d recovered %d impressions, %d were acknowledged", page, st.Impressions, ackedImps[page])
		}
	}
	// The storm must actually have hit: nacked commits on the service,
	// 503s at the clients.
	if r.WALFailures == 0 {
		r.failf("storm produced no WAL failures — faults never landed")
	}
	if r.Load.Unavailable503 == 0 {
		r.failf("clients saw no 503s during the storm")
	}
	return r, nil
}

// --- leader-kill -----------------------------------------------------

// runLeaderKill drives loadgen against a 3-node in-process replicated
// cluster, SIGKILLs the leader of shard 0 mid-run, and holds the
// cluster to the durability promise: every feedback batch the front
// door acknowledged with 202 must be present on the promoted leader,
// the write outage must stay bounded, and the post-failover ranking
// must stay Kendall-tau close to the pre-kill one (a failover may cost
// availability for a moment; it may not reshuffle the deck).
func runLeaderKill(opts ScenarioOptions) (*ScenarioResult, error) {
	r := &ScenarioResult{Name: "leader-kill"}
	inject := &faultfs.Injector{}
	dir, err := scenarioDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// One AckRecorder wraps every node's front door: whichever door
	// takes the 202, the promise lands in the shared ledger — which is
	// exactly what survives the leader's death.
	rec := NewAckRecorder(nil)
	cl, err := cluster.New(cluster.Options{
		Nodes:           3,
		Shards:          2,
		DataDir:         dir,
		Arms:            scenarioArms(),
		Seed:            opts.Seed,
		Corpus:          func(i int, cfg *serve.Config) { cfg.Durability.FaultInjector = inject },
		HeartbeatEvery:  20 * time.Millisecond,
		ElectionTimeout: 250 * time.Millisecond,
		Logf:            opts.Log,
		WrapFrontDoor:   rec.Wrap,
	})
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	const pages = 24
	for i := 0; i < pages; i++ {
		pop := float64(pages-i) * 0.05
		if i%6 == 0 {
			pop = 0
		}
		if err := cl.Add(i, fmt.Sprintf("deck page%d", i), pop); err != nil {
			return nil, err
		}
	}
	if err := cl.WaitConverged(10 * time.Second); err != nil {
		return nil, err
	}

	victim := cl.LeaderIndex(0)
	r.KilledNode = cl.Node(victim).ID()
	baseURL := cl.FrontDoorURL(victim) // the door that will die under the clients
	shards := cl.Node(victim).Corpus().Shards()
	probePage := 0
	for serve.ShardIndex(probePage, shards) != 0 {
		probePage++
	}

	const divProbes = 6

	// Honest traffic in the background, resolving the front door afresh
	// on every retry — the workers must follow the cluster to a
	// survivor when their door dies mid-request.
	opts.logf("leader-kill: load starts against %s's front door", r.KilledNode)
	loadDone := make(chan struct{})
	var load *Report
	var loadErr error
	go func() {
		defer close(loadDone)
		load, loadErr = Run(Config{
			BaseURL:       baseURL,
			Resolve:       cl.FirstAliveFrontDoor,
			Workers:       4,
			Requests:      opts.pick(600, 2400),
			N:             12,
			Units:         32,
			Seed:          opts.Seed + 31,
			FeedbackBatch: 5,
			Retries:       8,
			RetryBackoff:  10 * time.Millisecond,
			// Quality tracks popularity, so clicks reinforce the standing
			// order: the ranking the divergence gate compares across the
			// failover is stable under the traffic itself.
			Quality: func(id int) float64 { return 0.05 + float64(pages-id)*0.01 },
		})
	}()

	time.Sleep(time.Duration(opts.pick(150, 400)) * time.Millisecond)

	// Pre-kill control-arm rankings, probed moments before the kill so
	// the gate measures what the FAILOVER did to the ranking, not what
	// the run's own feedback did.
	pre := make([][]int, 0, divProbes)
	for p := 0; p < divProbes; p++ {
		ids, err := fetchRanking(baseURL, "", "control", 12, opts.Seed+uint64(p))
		if err != nil {
			return nil, err
		}
		pre = append(pre, ids)
	}
	opts.logf("leader-kill: SIGKILL %s (leader of shard 0)", r.KilledNode)
	killAt := time.Now()
	cl.KillNode(victim)
	if err := cl.WaitForLeaderChange(0, r.KilledNode, 10*time.Second); err != nil {
		r.failf("no follower was promoted: %v", err)
		<-loadDone
		return r, nil
	}
	promoted := cl.LeaderIndex(0)
	r.PromotedNode = cl.Node(promoted).ID()
	opts.logf("leader-kill: %s promoted for shard 0", r.PromotedNode)

	// The write outage: time from the kill until a survivor's front
	// door acks a shard-0 write again.
	surv := cl.FirstAliveFrontDoor()
	probe := []serve.Event{{Page: probePage, Slot: 1, Impressions: 1, Unit: "outage-probe"}}
	for postFeedback(surv, probe) != http.StatusAccepted {
		if time.Since(killAt) > 15*time.Second {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	r.OutageWindow = time.Since(killAt)

	// Post-failover rankings, same seeds, from a surviving door.
	post := make([][]int, 0, divProbes)
	for p := 0; p < divProbes; p++ {
		ids, err := fetchRanking(surv, "", "control", 12, opts.Seed+uint64(p))
		if err != nil {
			return nil, err
		}
		post = append(post, ids)
	}
	r.Divergence = Divergence("pre-kill", "post-failover", pre, post)

	<-loadDone
	if loadErr != nil {
		return nil, loadErr
	}
	r.Load = load
	if err := cl.WaitConverged(15 * time.Second); err != nil {
		r.failf("cluster did not reconverge after failover: %v", err)
	}

	// The promise: every page's acknowledged totals must be present on
	// the CURRENT leader of its shard (>=, never <: a batch that was
	// 503'd mid-failover and retried may double-count, but an
	// acknowledged click may never vanish).
	ackedImps, ackedClks := rec.Acked()
	for page, clicks := range ackedClks {
		li := cl.LeaderIndex(serve.ShardIndex(page, shards))
		if li < 0 {
			r.AckedLost++
			r.failf("page %d: shard has no live leader", page)
			continue
		}
		st, ok := cl.Node(li).Corpus().Page(page)
		if !ok || st.Clicks < clicks || st.Impressions < ackedImps[page] {
			r.AckedLost++
			r.failf("page %d: acked %d imp / %d clk, leader %s holds %d / %d",
				page, ackedImps[page], clicks, cl.Node(li).ID(), st.Impressions, st.Clicks)
		}
	}
	r.fillCounters(cl.Node(promoted).Corpus(), rec)

	// Gates: the kill must have been felt and survived.
	if r.OutageWindow > 10*time.Second {
		r.failf("write outage %v exceeded 10s", r.OutageWindow)
	}
	if r.Load.Failovers == 0 {
		r.failf("loadgen never re-resolved off the dead front door")
	}
	if r.Load.Reconnects == 0 && r.Load.Unavailable503 == 0 {
		r.failf("loadgen never observed the kill (no reconnects, no 503s)")
	}
	if r.Load.Requests == 0 {
		r.failf("no rank requests completed")
	}
	// The ranking must survive the failover: the promoted follower ranks
	// from replicated state, so pre/post lists may drift with the
	// feedback that kept flowing but must not reshuffle.
	if r.Divergence.MeanTau < 0.4 {
		r.failf("pre/post-failover rank divergence too high: mean tau %.3f < 0.4", r.Divergence.MeanTau)
	}
	return r, nil
}

// scenarioDir allocates a scratch data dir for a scenario's durable
// corpus.
func scenarioDir() (string, error) {
	return os.MkdirTemp("", "shuffledeck-chaos-*")
}

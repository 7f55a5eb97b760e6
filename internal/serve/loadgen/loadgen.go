// Package loadgen drives the ranking service's HTTP API with simulated
// users: the closed loop the chaos scenarios run their traffic through.
// A run reports what the clients saw: completed requests, acknowledged
// feedback, every retry, refusal, reconnect and failover, and one
// p50/p90/p99 rank latency summary. Layer-by-layer performance is
// measured by the bench harness, not here.
//
// Each simulated user issues POST /v1/rank, scans the returned list with
// the paper's rank-bias attention law (§5.3: position i draws attention
// ∝ i^(−3/2)), visits one sampled position, clicks it with probability
// equal to the page's true quality, and reports slot-level impressions and
// clicks back through POST /v1/feedback in batches. Run long enough, the
// closed loop reproduces the paper's dynamic online: promoted
// zero-awareness pages of high quality accumulate clicks and rise into
// the deterministic ranking.
package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/attention"
	"repro/internal/randutil"
	"repro/internal/serve"
)

// Config parameterizes a load run. BaseURL is required; every other zero
// field selects a default.
type Config struct {
	// BaseURL is the service root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Workers is the number of concurrent simulated users (default 4).
	Workers int
	// Requests is the total number of rank requests to issue (default 400).
	Requests int
	// Query is sent with every rank request ("" ranks the whole corpus).
	Query string
	// Queries enables a mixed workload: half the rank requests (drawn at
	// random) take the query path with a query drawn uniformly from
	// Queries; the rest send Query (usually "", the id-ranking browse
	// path).
	Queries []string
	// N is the result-list length requested (default serve.DefaultTopN).
	N int
	// Units is how many distinct experiment units (simulated users) each
	// worker cycles through; every rank request carries one, so the
	// service's arm bucketing is stable per unit (default 16). Negative
	// sends no unit IDs at all (the service then draws arms by weight
	// per request).
	Units int
	// Quality maps a page id to the probability a visiting user clicks it
	// (the paper's page quality). Nil means nobody ever clicks.
	Quality func(id int) float64
	// FeedbackBatch is how many events a worker accumulates before
	// flushing to /feedback (default 20; remainder flushes at the end).
	FeedbackBatch int
	// Retries is how many times a worker retries a request the service
	// refused with 429/503 or that failed in transport, with jittered
	// exponential backoff between attempts (default 3; negative
	// disables retries). Retry counts and time spent backing off are
	// reported separately from request latency.
	Retries int
	// RetryBackoff is the base backoff before the first retry; each
	// further attempt doubles it, jittered ±50% (default 20ms). A
	// retry hint from the service (the error envelope's retry_after_ms,
	// else the Retry-After header) is honored up to 16× this base, so an
	// adversarial or misconfigured server cannot stall a load run for
	// minutes.
	RetryBackoff time.Duration
	// Resolve, when non-nil, names the current front door: before each
	// retry the worker re-resolves and switches to the returned base URL
	// when it differs from the one that just failed. Without it a worker
	// that outlives its server hammers the dead address for the rest of
	// its retry budget — exactly the client bug a leader kill exposes.
	// Returning "" keeps the current address.
	Resolve func() string
	// Seed drives the simulated users' randomness.
	Seed uint64
}

// queryFraction is the probability a rank request of a mixed workload
// (Config.Queries) takes the query path.
const queryFraction = 0.5

// client carries every request loadgen makes.
var client = &http.Client{Timeout: 10 * time.Second}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Requests <= 0 {
		c.Requests = 400
	}
	if c.N <= 0 {
		c.N = serve.DefaultTopN
	}
	if c.FeedbackBatch <= 0 {
		c.FeedbackBatch = 20
	}
	if c.Units == 0 {
		c.Units = 16
	}
	if c.Retries == 0 {
		c.Retries = 3
	} else if c.Retries < 0 {
		c.Retries = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 20 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Report is the outcome of a load run.
type Report struct {
	Requests       int           // rank requests completed
	Errors         int           // rank or feedback requests that failed after retries
	FeedbackPosts  int           // feedback batches acknowledged
	FeedbackEvents int64         // feedback events acknowledged (durably committed)
	Impressions    int64         // slot impressions reported
	Clicks         int64         // clicks reported
	Retries        int           // retry attempts across all requests
	BackoffTime    time.Duration // total time spent sleeping between retries
	Rejected429    int           // 429 responses received (overload / rate limit)
	Unavailable503 int           // 503 responses received (durability failure / failover window)
	Reconnects     int           // transport-level failures retried (connection refused/reset)
	Failovers      int           // retries that re-resolved to a different front door
	Duration       time.Duration // wall clock of the whole run
	QPS            float64       // completed rank requests per second
	P50, P90, P99  time.Duration // rank request latency percentiles
	Max            time.Duration
}

// String renders the report as a compact human-readable block.
func (r *Report) String() string {
	s := fmt.Sprintf(
		"requests %d (errors %d) in %v — %.0f QPS\nrank latency p50 %v  p90 %v  p99 %v  max %v",
		r.Requests, r.Errors, r.Duration.Round(time.Millisecond), r.QPS,
		r.P50, r.P90, r.P99, r.Max)
	if r.Retries > 0 || r.Rejected429 > 0 || r.Unavailable503 > 0 {
		s += fmt.Sprintf("\nretries %d (backoff %v), 429s %d, 503s %d",
			r.Retries, r.BackoffTime.Round(time.Millisecond), r.Rejected429, r.Unavailable503)
	}
	if r.Reconnects > 0 || r.Failovers > 0 {
		s += fmt.Sprintf("\nreconnects %d, failovers %d", r.Reconnects, r.Failovers)
	}
	s += fmt.Sprintf("\nfeedback: %d posts, %d impressions, %d clicks",
		r.FeedbackPosts, r.Impressions, r.Clicks)
	return s
}

type worker struct {
	cfg       Config
	idx       int
	base      string // current front-door base URL (moves on failover)
	rng       *randutil.RNG
	att       *attention.Model
	pending   []serve.Event
	latencies []time.Duration // one per completed rank request
	report    Report
}

// Run executes the load run and aggregates per-worker measurements.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if cfg.BaseURL == "" && cfg.Resolve != nil {
		cfg.BaseURL = cfg.Resolve()
	}
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("loadgen: BaseURL required")
	}
	att, err := attention.Default(cfg.N, float64(cfg.N))
	if err != nil {
		return nil, fmt.Errorf("loadgen: %w", err)
	}
	workers := make([]*worker, cfg.Workers)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range workers {
		w := &worker{
			cfg:  cfg,
			idx:  i,
			base: cfg.BaseURL,
			rng:  randutil.New(cfg.Seed + uint64(i)*0x9e3779b97f4a7c15),
			att:  att,
		}
		workers[i] = w
		// Split the request budget evenly; the first workers take the
		// remainder.
		n := cfg.Requests / cfg.Workers
		if i < cfg.Requests%cfg.Workers {
			n++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(n)
		}()
	}
	wg.Wait()
	total := &Report{Duration: time.Since(start)}
	var all []time.Duration
	for _, w := range workers {
		total.Requests += w.report.Requests
		total.Errors += w.report.Errors
		total.FeedbackPosts += w.report.FeedbackPosts
		total.FeedbackEvents += w.report.FeedbackEvents
		total.Impressions += w.report.Impressions
		total.Clicks += w.report.Clicks
		total.Retries += w.report.Retries
		total.BackoffTime += w.report.BackoffTime
		total.Rejected429 += w.report.Rejected429
		total.Unavailable503 += w.report.Unavailable503
		total.Reconnects += w.report.Reconnects
		total.Failovers += w.report.Failovers
		all = append(all, w.latencies...)
	}
	if total.Duration > 0 {
		total.QPS = float64(total.Requests) / total.Duration.Seconds()
	}
	if len(all) > 0 {
		slices.Sort(all)
		total.P50 = percentile(all, 0.50)
		total.P90 = percentile(all, 0.90)
		total.P99 = percentile(all, 0.99)
		total.Max = all[len(all)-1]
	}
	return total, nil
}

// percentile reads the p-quantile from an ascending-sorted sample.
func percentile(sorted []time.Duration, p float64) time.Duration {
	return sorted[int(p*float64(len(sorted)-1))]
}

func (w *worker) run(requests int) {
	for i := 0; i < requests; i++ {
		query, unit := w.draw()
		items, arm, err := w.rank(query, unit)
		if err != nil {
			w.report.Errors++
			continue
		}
		w.report.Requests++
		w.observe(items, arm, unit)
		if len(w.pending) >= w.cfg.FeedbackBatch {
			w.flush()
		}
	}
	w.flush()
}

// draw picks the next simulated request: the query path with probability
// queryFraction, and a stable simulated-user identity so the service's
// deterministic unit bucketing keeps every user on one arm across the
// run.
func (w *worker) draw() (query, unit string) {
	query = w.cfg.Query
	if len(w.cfg.Queries) > 0 && w.rng.Bernoulli(queryFraction) {
		query = w.cfg.Queries[w.rng.Intn(len(w.cfg.Queries))]
	}
	if w.cfg.Units > 0 {
		unit = fmt.Sprintf("w%d-u%d", w.idx, w.rng.Intn(w.cfg.Units))
	}
	return query, unit
}

// retryHint extracts the service's backoff hint from a refused
// response: the /v1 error envelope's retry_after_ms when the body
// carries one, falling back to the Retry-After header (whole seconds,
// the only form the legacy surface emitted).
func retryHint(resp *http.Response, body []byte) time.Duration {
	var env serve.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err == nil && env.Error.RetryAfterMS > 0 {
		return time.Duration(env.Error.RetryAfterMS) * time.Millisecond
	}
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil {
			return time.Duration(secs) * time.Second
		}
	}
	return 0
}

// post issues one POST with retries: a transport failure, 429 or 503 is
// retried up to cfg.Retries times with jittered exponential backoff,
// honoring (clamped) retry hints from the error envelope or Retry-After
// header. When Config.Resolve is set, each retry re-resolves the front
// door first — a worker whose server just died follows the cluster to a
// survivor instead of burning its retry budget on a dead address.
// Backoff time is accounted separately from request latency, which
// callers measure per attempt. The returned response (when non-nil) has
// status 2xx and an open body the caller must close.
func (w *worker) post(path string, body []byte) (*http.Response, error) {
	backoff := w.cfg.RetryBackoff
	for attempt := 0; ; attempt++ {
		resp, err := client.Post(w.base+path, "application/json", bytes.NewReader(body))
		retryAfter := time.Duration(0)
		if err == nil {
			switch resp.StatusCode {
			case http.StatusTooManyRequests, http.StatusServiceUnavailable:
				if resp.StatusCode == http.StatusTooManyRequests {
					w.report.Rejected429++
				} else {
					w.report.Unavailable503++
				}
				envelope, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				retryAfter = retryHint(resp, envelope)
				err = fmt.Errorf("loadgen: %s status %d", path, resp.StatusCode)
			default:
				return resp, nil
			}
		} else {
			// Transport-level failure: the connection died under us
			// (refused, reset, timeout) — distinct from a served 5xx.
			w.report.Reconnects++
		}
		if attempt >= w.cfg.Retries {
			return nil, err
		}
		if w.cfg.Resolve != nil {
			if nb := w.cfg.Resolve(); nb != "" && nb != w.base {
				w.base = nb
				w.report.Failovers++
			}
		}
		// Jittered exponential backoff: ±50% around the doubling base.
		// The service's Retry-After hint wins when longer, clamped to
		// 16× the base so a stalled server cannot pin the run.
		sleep := backoff/2 + time.Duration(w.rng.Float64()*float64(backoff))
		if retryAfter > sleep {
			sleep = min(retryAfter, 16*w.cfg.RetryBackoff)
		}
		w.report.Retries++
		w.report.BackoffTime += sleep
		time.Sleep(sleep)
		backoff *= 2
	}
}

func (w *worker) rank(query, unit string) ([]serve.RankedItem, string, error) {
	body, err := json.Marshal(serve.RankRequest{Query: query, N: w.cfg.N, Unit: unit})
	if err != nil {
		return nil, "", err
	}
	start := time.Now()
	backoffBefore := w.report.BackoffTime
	resp, err := w.post("/v1/rank", body)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil, "", fmt.Errorf("loadgen: /v1/rank status %d", resp.StatusCode)
	}
	var rr serve.RankResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		return nil, "", err
	}
	// Only successful, fully decoded requests contribute latency
	// samples; Report.Requests counts exactly these. Retry backoff is
	// subtracted out — it is reported as BackoffTime, not smeared into
	// the service's latency percentiles.
	lat := time.Since(start) - (w.report.BackoffTime - backoffBefore)
	w.latencies = append(w.latencies, max(lat, 0))
	return rr.Results, rr.Arm, nil
}

// observe simulates one user on one result list: every served slot is an
// impression; one attention-sampled position is visited and clicked with
// probability equal to the page's quality. Events carry the serving arm
// (for per-arm telemetry attribution) and the unit that saw the list
// (the client identity the service's provenance and rate-limit defenses
// key on).
func (w *worker) observe(items []serve.RankedItem, arm, unit string) {
	if len(items) == 0 {
		return
	}
	visit := w.att.SampleRank(w.rng)
	for _, it := range items {
		e := serve.Event{Page: it.ID, Slot: it.Slot, Impressions: 1, Arm: arm, Unit: unit}
		if it.Slot == visit && w.cfg.Quality != nil && w.rng.Bernoulli(w.cfg.Quality(it.ID)) {
			e.Clicks = 1
			w.report.Clicks++
		}
		w.report.Impressions++
		w.pending = append(w.pending, e)
	}
}

func (w *worker) flush() {
	if len(w.pending) == 0 {
		return
	}
	n := len(w.pending)
	body, err := json.Marshal(serve.FeedbackRequest{Events: w.pending})
	w.pending = w.pending[:0]
	if err != nil {
		w.report.Errors++
		return
	}
	// post retries 429 (queue full, rate limited) and 503 (durability
	// failure) with backoff: under a flash crowd the events eventually
	// land — or the run honestly reports them as errors, never as
	// silently dropped acks.
	resp, err := w.post("/v1/feedback", body)
	if err != nil {
		w.report.Errors++
		return
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		w.report.Errors++
		return
	}
	w.report.FeedbackPosts++
	w.report.FeedbackEvents += int64(n)
}

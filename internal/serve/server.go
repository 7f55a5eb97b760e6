// HTTP front end for the live corpus, versioned under /v1: POST
// /v1/rank serves randomized result lists (POST /v1/rank/batch serves
// many per round trip, JSON or binary-framed), POST /v1/feedback
// ingests slot-level impressions and clicks, GET /v1/stats exposes
// corpus accounting plus the per-slot telemetry that makes promotion
// evaluable online (position-bias measurement needs impression/click
// counts per presented position), and GET /v1/healthz is the readiness
// probe: recovery state, per-shard feedback-queue depth and WAL lag.
// Every failure, on every endpoint, is the structured envelope
// {"error":{"code","message","retry_after_ms"}}. docs/api.md is the
// full contract.
//
// The hot handlers (/rank, /feedback and their batch forms) run
// allocation-light and reflection-free: request bodies are read into
// pooled buffers and decoded by a hand-written scanner (decode.go) into
// pooled structures, and responses are written by an append-based JSON
// encoder (encode.go) into a pooled buffer. encoding/json stays on the
// cold endpoints, on error replies, and as the decoder of any request
// body the scanner declines.
package serve

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// MaxTopN caps the result-list length a single request may ask for.
const MaxTopN = 1000

// maxBodyBytes caps a request body: a /feedback batch of ~100k events
// fits comfortably; anything larger is a client bug or abuse.
const maxBodyBytes = 8 << 20

// connScratch is the per-request HTTP working set — body read buffer,
// response write buffer, served results and the scanner's decode
// targets — recycled through a pool so the steady-state handlers
// allocate little beyond what net/http itself does. The decode targets
// are safe to reuse only because the scanner assigns every field of
// every element it produces; json.Unmarshal does not (it reuses a
// slice's backing array without zeroing it, so an event whose JSON omits
// a field would inherit a previous request's value), which is why the
// fallback path never decodes into them.
type connScratch struct {
	in      []byte
	out     []byte
	results []Result
	events  []Event     // scanned feedback events
	forced  []*armState // the batch's resolved forced arms
	seed    uint64      // backing for a single scanned RankRequest.Seed
	lsns    []uint64    // per-shard commit LSNs of a held feedback post
}

// maxPooledEvents is the largest scanned-events slice a connScratch
// keeps between requests: room for a JSON /v1/feedback post as large as
// a full binary batch however append rounded its growth. /v1/feedback
// has no event cap, so one 8 MB post can scan into millions of events;
// that slice is dropped rather than pinned in the pool.
const maxPooledEvents = 2 * MaxFeedbackBatchEvents

// Server wraps a Corpus with the HTTP API. Create with NewServer; it
// implements http.Handler.
type Server struct {
	corpus *Corpus
	mux    *http.ServeMux
	start  time.Time

	// limiter is the per-client token-bucket rate limiter, nil when
	// Config.Limits.RateLimitRPS is zero (disabled).
	limiter *rateLimiter

	scratch sync.Pool // *connScratch

	// ackHold, when set, runs between a feedback batch's commit and its
	// 202 (see HoldFeedbackAcks).
	ackHold func(lsns []uint64) error

	rankRequests     atomic.Uint64
	feedbackRequests atomic.Uint64
	feedback429      atomic.Uint64 // feedback batches refused: queue full
	feedback503      atomic.Uint64 // feedback batches refused: WAL commit failed
}

// NewServer builds the HTTP front end for the corpus. Every endpoint is
// mounted under /v1; any other path is the mux's 404.
func NewServer(c *Corpus) *Server {
	s := &Server{corpus: c, mux: http.NewServeMux(), start: time.Now()}
	if c.cfg.Limits.RateLimitRPS > 0 {
		s.limiter = newRateLimiter(c.cfg.Limits.RateLimitRPS, c.cfg.Limits.RateLimitBurst)
	}
	s.scratch.New = func() any {
		return &connScratch{in: make([]byte, 0, 1024), out: make([]byte, 0, 4096)}
	}
	s.mux.HandleFunc("/v1/rank", s.handleRank)
	s.mux.HandleFunc("/v1/feedback", func(w http.ResponseWriter, r *http.Request) { s.handleFeedback(w, r, false) })
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/v1/experiment", s.handleExperiment)
	s.mux.HandleFunc("/v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("/v1/rank/batch", s.handleRankBatch)
	s.mux.HandleFunc("/v1/feedback/batch", func(w http.ResponseWriter, r *http.Request) { s.handleFeedback(w, r, true) })
	return s
}

// HoldFeedbackAcks installs hold between a feedback batch's commit and
// its 202: hold receives, per shard, the end LSN of the group commit
// that made the batch durable there — 0 for shards it did not touch —
// valid only until it returns, and an error from it turns the
// acknowledgment into a 503 replication_lag. A cluster node holds acks
// here until a follower quorum has those LSNs. Call before serving.
func (s *Server) HoldFeedbackAcks(hold func(lsns []uint64) error) { s.ackHold = hold }

// putScratch returns sc to the pool, minus an events slice that
// outgrew maxPooledEvents.
func (s *Server) putScratch(sc *connScratch) {
	if cap(sc.events) > maxPooledEvents {
		sc.events = nil
	}
	s.scratch.Put(sc)
}

// readBody reads the request body (bounded by maxBodyBytes) into dst,
// reusing its capacity.
func readBody(dst []byte, w http.ResponseWriter, r *http.Request) ([]byte, error) {
	rd := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := rd.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// jsonContentType is the header value every hot JSON reply shares:
// assigning the slice costs no allocation where Header.Set would make a
// fresh one-element slice per response. net/http only reads it.
var jsonContentType = []string{"application/json"}

// writeRaw sends a pre-encoded JSON body.
func writeRaw(w http.ResponseWriter, status int, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// ServeHTTP dispatches to the API endpoints.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// clientKey identifies the rate-limit bucket for a request: the
// experiment unit when the request carries one (stable across NATs and
// proxies), else the remote IP.
func clientKey(unit string, r *http.Request) string {
	if unit != "" {
		return unit
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// rateLimit applies the per-client limiter, answering 429 + Retry-After
// and reporting false when the client's bucket is empty.
func (s *Server) rateLimit(w http.ResponseWriter, r *http.Request, unit string) bool {
	if s.limiter == nil || s.limiter.allow(clientKey(unit, r)) {
		return true
	}
	WriteError(w, http.StatusTooManyRequests, ErrCodeRateLimited, time.Second, "rate limit exceeded")
	return false
}

// RankRequest is the POST /rank body.
type RankRequest struct {
	// Query is the conjunctive search query; empty ranks the whole corpus.
	Query string `json:"query"`
	// N is the maximum result count (default DefaultTopN, capped at
	// MaxTopN).
	N int `json:"n"`
	// Unit is the experiment unit (user or session ID): it buckets the
	// request deterministically into an arm, so the same unit always sees
	// the same policy. Empty draws an arm by weight per request.
	Unit string `json:"unit,omitempty"`
	// Arm, when non-empty, forces the named arm regardless of Unit —
	// for debugging and holdout probes. Unknown names are a 400.
	Arm string `json:"arm,omitempty"`
	// Seed, when non-nil, makes the randomized merge reproducible.
	Seed *uint64 `json:"seed,omitempty"`
}

// RankedItem is one slot of a RankResponse.
type RankedItem struct {
	Slot       int     `json:"slot"`
	ID         int     `json:"id"`
	Popularity float64 `json:"popularity"`
	Promoted   bool    `json:"promoted"`
}

// RankResponse is the POST /rank reply. Arm names the experiment arm
// that served the request; clients echo it in feedback events so per-arm
// telemetry attributes correctly.
type RankResponse struct {
	Query   string       `json:"query"`
	Arm     string       `json:"arm"`
	Epoch   uint64       `json:"epoch"`
	Results []RankedItem `json:"results"`
}

// FeedbackRequest is the POST /feedback body.
type FeedbackRequest struct {
	Events []Event `json:"events"`
}

// FeedbackResponse is the POST /feedback reply.
type FeedbackResponse struct {
	Accepted int `json:"accepted"`
}

// SlotStats is one row of the per-position telemetry table.
type SlotStats struct {
	Slot        int    `json:"slot"`
	Impressions uint64 `json:"impressions"`
	Clicks      uint64 `json:"clicks"`
}

// ExperimentResponse is the GET /experiment reply: one row per declared
// arm with its policy, traffic weight and accumulated telemetry —
// requests, attributed impressions/clicks, zero-awareness discoveries
// and mean time-to-first-click.
type ExperimentResponse struct {
	Arms []ArmReport `json:"arms"`
}

// StatsResponse is the GET /stats reply: the corpus Stats plus what
// only the server or the WAL knows.
type StatsResponse struct {
	UptimeSeconds    float64 `json:"uptime_seconds"`
	Shards           int     `json:"shards"`
	Policy           string  `json:"policy"`
	RankRequests     uint64  `json:"rank_requests"`
	FeedbackRequests uint64  `json:"feedback_requests"`
	Stats
	// HTTP overload telemetry: 429s and 503s answered to feedback posts
	// and requests refused by the rate limiter.
	Feedback429    uint64 `json:"feedback_429"`
	Feedback503    uint64 `json:"feedback_503"`
	RateLimited429 uint64 `json:"rate_limited_429"`
	// Write-path telemetry (durable corpora only): windowed fsync rate,
	// mean group-commit batch size, p99 commit latency, plus the
	// process-lifetime WAL counters whose deltas give exact rates over
	// any interval. Per-shard detail (including p99 batch size and mean
	// latency) is on /v1/healthz.
	FsyncsPerSec      float64      `json:"fsyncs_per_sec,omitempty"`
	MeanCommitRecords float64      `json:"mean_commit_records,omitempty"`
	P99CommitMicros   int64        `json:"p99_commit_micros,omitempty"`
	WAL               *WALCounters `json:"wal,omitempty"`

	Slots []SlotStats `json:"slots"`
}

func (s *Server) handleRank(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, ErrCodeMethodNotAllowed, 0, "POST only")
		return
	}
	sc := s.scratch.Get().(*connScratch)
	defer s.putScratch(sc)
	var err error
	sc.in, err = readBody(sc.in[:0], w, r)
	if err != nil {
		WriteError(w, http.StatusBadRequest, ErrCodeBadRequest, 0, "bad JSON: %v", err)
		return
	}
	var req RankRequest
	if err := decodeRankRequest(sc.in, &req, &sc.seed, s.corpus.armIdx); err != nil {
		WriteError(w, http.StatusBadRequest, ErrCodeBadRequest, 0, "bad JSON: %v", err)
		return
	}
	forced, err := s.resolveRank(&req)
	if err != nil {
		WriteError(w, http.StatusBadRequest, ErrCodeBadRequest, 0, "%v", err)
		return
	}
	if !s.rateLimit(w, r, req.Unit) {
		return
	}
	s.rankRequests.Add(1)
	var armName string
	sc.results, armName = s.corpus.rankInto(req.Query, req.N, req.Seed, req.Unit, forced, sc.results)
	sc.out = appendRankResponse(sc.out[:0], req.Query, armName, s.corpus.Epoch(), sc.results)
	writeRaw(w, http.StatusOK, sc.out)
}

// resolveRank validates a rank request for both rank handlers: it sets
// N to the served length (DefaultTopN for 0, capped at MaxTopN) and
// returns the forced arm, nil when Arm is empty.
func (s *Server) resolveRank(req *RankRequest) (*armState, error) {
	if req.N < 0 {
		return nil, fmt.Errorf("n must be >= 0, got %d", req.N)
	}
	if req.N == 0 {
		req.N = DefaultTopN
	}
	if req.N > MaxTopN {
		req.N = MaxTopN
	}
	if req.Arm == "" {
		return nil, nil
	}
	a, ok := s.corpus.armByName(req.Arm)
	if !ok {
		return nil, fmt.Errorf("unknown arm %q", req.Arm)
	}
	return a, nil
}

// handleRankBatch serves POST /v1/rank/batch: many rank requests per
// round trip, in one of two codecs selected by the request
// Content-Type — JSON ({"requests":[...]}) by default, or the
// length-prefixed binary framing when the Content-Type is
// BatchContentType (the response then uses the same framing). The batch
// is all-or-nothing about validity: any malformed sub-request fails the
// whole call with one error envelope and nothing is served. The rate
// limiter charges the batch as ONE request (that is the point of
// batching); each sub-request still counts individually in
// rank_requests.
func (s *Server) handleRankBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, ErrCodeMethodNotAllowed, 0, "POST only")
		return
	}
	sc := s.scratch.Get().(*connScratch)
	defer s.putScratch(sc)
	var err error
	sc.in, err = readBody(sc.in[:0], w, r)
	if err != nil {
		WriteError(w, http.StatusBadRequest, ErrCodeBadRequest, 0, "bad body: %v", err)
		return
	}
	binaryCodec := r.Header.Get("Content-Type") == BatchContentType
	var reqs []RankRequest
	if binaryCodec {
		reqs, err = DecodeRankBatchRequest(sc.in)
		if err != nil {
			WriteError(w, http.StatusBadRequest, ErrCodeBadRequest, 0, "%v", err)
			return
		}
	} else {
		var body RankBatchRequest
		if err = json.Unmarshal(sc.in, &body); err != nil {
			WriteError(w, http.StatusBadRequest, ErrCodeBadRequest, 0, "bad JSON: %v", err)
			return
		}
		reqs = body.Requests
	}
	if len(reqs) == 0 {
		WriteError(w, http.StatusBadRequest, ErrCodeBadRequest, 0, "empty batch")
		return
	}
	if len(reqs) > MaxBatchRequests {
		WriteError(w, http.StatusBadRequest, ErrCodeBadRequest, 0, "batch of %d requests exceeds %d", len(reqs), MaxBatchRequests)
		return
	}
	// Validate every sub-request before serving any, so a bad batch
	// fails whole without side effects.
	var unit string
	sc.forced = sc.forced[:0]
	for i := range reqs {
		req := &reqs[i]
		forced, err := s.resolveRank(req)
		if err != nil {
			WriteError(w, http.StatusBadRequest, ErrCodeBadRequest, 0, "request %d: %v", i, err)
			return
		}
		sc.forced = append(sc.forced, forced)
		if unit == "" {
			unit = req.Unit
		}
	}
	if !s.rateLimit(w, r, unit) {
		return
	}
	s.rankRequests.Add(uint64(len(reqs)))
	out := sc.out[:0]
	if binaryCodec {
		out = binary.AppendUvarint(out, batchVersion)
		out = binary.AppendUvarint(out, uint64(len(reqs)))
	} else {
		out = append(out, `{"responses":[`...)
	}
	for i := range reqs {
		req := &reqs[i]
		var armName string
		sc.results, armName = s.corpus.rankInto(req.Query, req.N, req.Seed, req.Unit, sc.forced[i], sc.results)
		if binaryCodec {
			out = appendBinRankItem(out, armName, s.corpus.Epoch(), sc.results)
		} else {
			if i > 0 {
				out = append(out, ',')
			}
			out = appendRankBody(out, req.Query, armName, s.corpus.Epoch(), sc.results)
		}
	}
	if binaryCodec {
		sc.out = out
		w.Header().Set("Content-Type", BatchContentType)
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(out)
		return
	}
	sc.out = append(out, ']', '}', '\n')
	writeRaw(w, http.StatusOK, sc.out)
}

// DecodeFeedbackPost decodes and validates the body of a feedback post
// exactly as the endpoint it arrived on does, so the cluster front door
// can split a post by shard leader knowing each part will be accepted
// as the whole would have been. batch selects /v1/feedback/batch's
// rules: only the binary framing (contentType must be BatchContentType),
// a non-empty batch of at most MaxFeedbackBatchEvents, and messages
// that name the offending event's index. The events are the caller's
// to keep; the error's text is the 400 message.
func (s *Server) DecodeFeedbackPost(batch bool, contentType string, body []byte) ([]Event, error) {
	var fresh []Event
	return s.decodeFeedbackPost(batch, contentType, body, &fresh)
}

// decodeFeedbackPost is DecodeFeedbackPost for the handler: a canonical
// JSON body is scanned into (*pool)[:0], the grown slice is left in
// *pool for the next request, and the returned events may alias it.
func (s *Server) decodeFeedbackPost(batch bool, contentType string, body []byte, pool *[]Event) ([]Event, error) {
	var events []Event
	var err error
	switch {
	case !batch:
		if events, err = decodeFeedback(body, pool, s.corpus.armIdx); err != nil {
			return nil, fmt.Errorf("bad JSON: %v", err)
		}
	case contentType != BatchContentType:
		return nil, fmt.Errorf("/v1/feedback/batch takes only %s bodies, got %q", BatchContentType, contentType)
	default:
		// The decoder refuses counts above MaxFeedbackBatchEvents.
		if events, err = DecodeFeedbackBatchRequest(body); err != nil {
			return nil, err
		}
		if len(events) == 0 {
			return nil, errors.New("empty batch")
		}
	}
	for i := range events {
		e := &events[i]
		var msg string
		switch {
		case e.Impressions < 0 || e.Clicks < 0:
			msg = fmt.Sprintf("negative counts for page %d (impressions %d, clicks %d)", e.Page, e.Impressions, e.Clicks)
		case e.Slot < 1:
			msg = fmt.Sprintf("slot must be >= 1 for page %d, got %d", e.Page, e.Slot)
		default:
			continue
		}
		if batch {
			msg = fmt.Sprintf("event %d: %s", i, msg)
		}
		return nil, errors.New(msg)
	}
	return events, nil
}

// handleFeedback serves POST /v1/feedback (batch false: JSON
// {"events":[...]}, possibly empty, any size the body cap allows) and
// POST /v1/feedback/batch (batch true: many events per round trip in
// the length-prefixed binary framing, Content-Type BatchContentType —
// the 202 uses the same framing; errors are always a JSON envelope).
// Validation is all-or-nothing — any malformed event fails the whole
// call before admission, so a 202 means every event committed. The rate
// limiter charges the post as ONE request, and the whole post is
// admitted through ONE TryFeedback, which is what turns a large wire
// batch into a large WAL group commit instead of many small ones.
func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request, batch bool) {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, ErrCodeMethodNotAllowed, 0, "POST only")
		return
	}
	sc := s.scratch.Get().(*connScratch)
	defer s.putScratch(sc)
	var err error
	sc.in, err = readBody(sc.in[:0], w, r)
	if err != nil {
		what := "bad JSON"
		if batch {
			what = "bad body"
		}
		WriteError(w, http.StatusBadRequest, ErrCodeBadRequest, 0, "%s: %v", what, err)
		return
	}
	contentType := r.Header.Get("Content-Type")
	events, err := s.decodeFeedbackPost(batch, contentType, sc.in, &sc.events)
	if err != nil {
		WriteError(w, http.StatusBadRequest, ErrCodeBadRequest, 0, "%v", err)
		return
	}
	var unit string
	for i := range events {
		if unit = events[i].Unit; unit != "" {
			break
		}
	}
	if !s.rateLimit(w, r, unit) {
		return
	}
	s.feedbackRequests.Add(1)
	// Slot telemetry is recorded by the apply loops, so the /stats slot
	// table only ever counts feedback that was actually folded in.
	// The post is admitted as TryFeedback admits it, which copies events
	// into per-shard batches, so the pooled slice is free for reuse as
	// soon as the handler returns. A held ack also collects each
	// touched shard's commit LSN for the hold to wait on.
	//
	// The 202 is a durability promise (the batch committed on every
	// target shard), so admission failures must be surfaced, never
	// silently dropped: a full queue is the client's signal to back off
	// (429 + Retry-After, nothing was enqueued, retry the whole batch);
	// a WAL commit failure means the shard cannot persist right now
	// (503, the batch was nacked and /healthz reports unhealthy).
	var lsns []uint64
	if s.ackHold != nil {
		sc.lsns = slices.Grow(sc.lsns[:0], len(s.corpus.shards))[:len(s.corpus.shards)]
		lsns = sc.lsns
	}
	err = s.corpus.feedback(events, true, lsns)
	if err == nil && s.ackHold != nil {
		if held := s.ackHold(lsns); held != nil {
			WriteError(w, http.StatusServiceUnavailable, ErrCodeReplLag, time.Second, "%v", held)
			return
		}
	}
	switch {
	case err == nil:
		if batch {
			sc.out = AppendFeedbackBatchResponse(sc.out[:0], len(events))
			w.Header().Set("Content-Type", BatchContentType)
			w.WriteHeader(http.StatusAccepted)
			_, _ = w.Write(sc.out)
			return
		}
		sc.out = appendFeedbackResponse(sc.out[:0], len(events))
		writeRaw(w, http.StatusAccepted, sc.out)
	case errors.Is(err, ErrOverloaded):
		s.feedback429.Add(1)
		WriteError(w, http.StatusTooManyRequests, ErrCodeOverloaded, time.Second, "feedback queue full, retry with backoff")
	case errors.Is(err, ErrNotLeader):
		// 503 so generic clients back off and retry; the not_leader code
		// tells cluster-aware clients to re-resolve the front door first.
		s.feedback503.Add(1)
		WriteError(w, http.StatusServiceUnavailable, ErrCodeNotLeader, time.Second, "this node does not lead the target shard: %v", err)
	default:
		s.feedback503.Add(1)
		WriteError(w, http.StatusServiceUnavailable, ErrCodeUnavailable, 2*time.Second, "feedback not durable: %v", err)
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, ErrCodeMethodNotAllowed, 0, "GET only")
		return
	}
	resp := StatsResponse{
		UptimeSeconds:    time.Since(s.start).Seconds(),
		Shards:           s.corpus.Shards(),
		Policy:           s.corpus.PolicyLabel(),
		RankRequests:     s.rankRequests.Load(),
		FeedbackRequests: s.feedbackRequests.Load(),
		Stats:            s.corpus.Stats(),
		Feedback429:      s.feedback429.Load(),
		Feedback503:      s.feedback503.Load(),
	}
	// Write-path rates are transient telemetry, not recoverable state,
	// so they come from the health surface rather than Corpus.Stats.
	var commitSum float64 // records covered per second, for the weighted mean
	for _, row := range s.corpus.Health().Shards {
		resp.FsyncsPerSec += row.FsyncsPerSec
		commitSum += row.FsyncsPerSec * row.MeanCommitRecords
		if row.P99CommitMicros > resp.P99CommitMicros {
			resp.P99CommitMicros = row.P99CommitMicros
		}
	}
	if resp.FsyncsPerSec > 0 {
		resp.MeanCommitRecords = commitSum / resp.FsyncsPerSec
	}
	if wc := s.corpus.WALCounters(); wc != (WALCounters{}) {
		resp.WAL = &wc
	}
	if s.limiter != nil {
		resp.RateLimited429 = s.limiter.limited.Load()
	}
	// Trim the slot table to the deepest position that saw traffic.
	last := 0
	for slot := 1; slot <= SlotTrack; slot++ {
		if imp, clk := s.corpus.SlotTelemetry(slot); imp > 0 || clk > 0 {
			last = slot
		}
	}
	for slot := 1; slot <= last; slot++ {
		imp, clk := s.corpus.SlotTelemetry(slot)
		resp.Slots = append(resp.Slots, SlotStats{Slot: slot, Impressions: imp, Clicks: clk})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, ErrCodeMethodNotAllowed, 0, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, ExperimentResponse{Arms: s.corpus.Arms()})
}

// HealthzResponse is the GET /healthz reply: readiness plus the
// durability picture — per-shard feedback-queue depth and WAL lag (bytes
// not yet covered by a snapshot). The daemon serves a {"status":
// "recovering"} variant from a placeholder handler while boot-time
// recovery is still replaying the log.
type HealthzResponse struct {
	Status string `json:"status"`
	HealthReport
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.corpus.Health()
	// 503 is reserved for states where the instance should not receive
	// traffic: recovery in progress (the daemon's placeholder handler)
	// and a failing WAL (feedback is being nacked). Feedback overload is
	// not one: it is answered per request with 429, and the rank path
	// keeps serving the current state.
	status, code := "ready", http.StatusOK
	if h.WALFailing {
		status, code = "unhealthy", http.StatusServiceUnavailable
	}
	writeJSON(w, code, HealthzResponse{Status: status, HealthReport: h})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// The status line is already written; an encode error has nowhere
	// better to go than the closed connection.
	_ = json.NewEncoder(w).Encode(v)
}

// Error codes carried by the structured error envelope.
const (
	// ErrCodeBadRequest: the request is malformed or semantically
	// invalid; retrying unchanged will fail the same way.
	ErrCodeBadRequest = "bad_request"
	// ErrCodeMethodNotAllowed: wrong HTTP method for the endpoint.
	ErrCodeMethodNotAllowed = "method_not_allowed"
	// ErrCodeRateLimited: the client's token bucket is empty; retry
	// after the advertised delay.
	ErrCodeRateLimited = "rate_limited"
	// ErrCodeOverloaded: a shard feedback queue is full; nothing was
	// enqueued, retry the whole batch after backing off.
	ErrCodeOverloaded = "overloaded"
	// ErrCodeUnavailable: the service cannot satisfy the request right
	// now (e.g. feedback could not be made durable, or recovery is in
	// progress); the batch was nacked and may be retried.
	ErrCodeUnavailable = "unavailable"
	// ErrCodeNotLeader: a write targeted a shard this node follows
	// rather than leads; nothing was enqueued. Re-resolve the cluster
	// front door (or consult /v1/healthz replication roles) and retry
	// against the leader.
	ErrCodeNotLeader = "not_leader"
	// ErrCodeReplLag: a feedback batch committed on this node but a
	// follower quorum did not acknowledge it in time (cluster nodes
	// only); the write was NOT acknowledged, retry it.
	ErrCodeReplLag = "replication_lag"
)

// ErrorInfo is the payload of the unified error envelope every endpoint
// answers failures with.
type ErrorInfo struct {
	// Code is a stable machine-readable failure class (the ErrCode
	// constants); Message is human-readable detail that may change
	// between releases.
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfterMS mirrors the Retry-After header in milliseconds on
	// 429/503 responses; 0 means the error is not a backoff signal.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// ErrorEnvelope is the wire shape of every non-2xx reply:
// {"error":{"code","message","retry_after_ms"}}.
type ErrorEnvelope struct {
	Error ErrorInfo `json:"error"`
}

// WriteError answers with the unified error envelope. A positive
// retryAfter also sets the Retry-After header (whole seconds, rounded
// up) and is mirrored in the body in milliseconds.
func WriteError(w http.ResponseWriter, status int, code string, retryAfter time.Duration, format string, args ...any) {
	var retryMS int64
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt(int64((retryAfter+time.Second-1)/time.Second), 10))
		retryMS = retryAfter.Milliseconds()
	}
	writeJSON(w, status, ErrorEnvelope{Error: ErrorInfo{Code: code, Message: fmt.Sprintf(format, args...), RetryAfterMS: retryMS}})
}

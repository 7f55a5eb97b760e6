// Contract tests for the versioned /v1 API surface: the unversioned paths
// answer 404 like any unknown path, every failure path answers the
// structured error envelope, the batch endpoint
// serves both codecs equivalently, and the dense page table survives a
// concurrent add/feedback/rank storm with exact popularity conservation.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultfs"
)

// do issues one request against the handler and returns the recorder.
func do(t *testing.T, h http.Handler, method, path, contentType string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// decodeEnvelope parses an error-envelope body, failing the test on any
// other shape.
func decodeEnvelope(t *testing.T, w *httptest.ResponseRecorder) ErrorInfo {
	t.Helper()
	var env ErrorEnvelope
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Fatalf("response is not an error envelope: %q: %v", w.Body.String(), err)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("envelope missing code or message: %q", w.Body.String())
	}
	return env.Error
}

// TestLegacyPathsAre404: the unversioned aliases are gone. Each old
// path gets exactly the mux's answer to any unknown path — status, body,
// and no migration headers — while its /v1 successor still serves.
func TestLegacyPathsAre404(t *testing.T) {
	srv := NewServer(newTestCorpus(t, Config{Shards: 1, Seed: 5}))
	unknown := do(t, srv, http.MethodGet, "/no-such-path", "", nil)
	if unknown.Code != http.StatusNotFound {
		t.Fatalf("unknown path answered %d, want 404", unknown.Code)
	}
	rankBody, _ := json.Marshal(RankRequest{N: 3})
	fbBody, _ := json.Marshal(FeedbackRequest{Events: []Event{{Page: 1, Slot: 1, Impressions: 1}}})
	cases := []struct {
		method, path string
		body         []byte
	}{
		{http.MethodPost, "/rank", rankBody},
		{http.MethodPost, "/feedback", fbBody},
		{http.MethodGet, "/stats", nil},
		{http.MethodGet, "/experiment", nil},
		{http.MethodGet, "/healthz", nil},
	}
	for _, tc := range cases {
		w := do(t, srv, tc.method, tc.path, "application/json", tc.body)
		if w.Code != unknown.Code || !bytes.Equal(w.Body.Bytes(), unknown.Body.Bytes()) {
			t.Errorf("%s %s: answered %d %q, want the unknown-path %d %q",
				tc.method, tc.path, w.Code, w.Body.String(), unknown.Code, unknown.Body.String())
		}
		if w.Header().Get("Deprecation") != "" || w.Header().Get("Link") != "" {
			t.Errorf("%s %s: still carries migration headers", tc.method, tc.path)
		}
		if v1 := do(t, srv, tc.method, "/v1"+tc.path, "application/json", tc.body); v1.Code/100 != 2 {
			t.Errorf("%s /v1%s: answered %d %q", tc.method, tc.path, v1.Code, v1.Body.String())
		}
	}
}

// TestErrorEnvelopeRoundTrips drives every client-error failure path and
// asserts the unified envelope comes back: stable code, non-empty
// message, and no stray retry hint on non-backoff errors.
func TestErrorEnvelopeRoundTrips(t *testing.T) {
	c := newTestCorpus(t, Config{Shards: 2, Seed: 3, Arms: []Arm{
		{Name: "only", Policy: pspec("selective", 1, 0.1, 0), Weight: 1},
	}})
	if err := c.Add(1, "envelope topic", 1); err != nil {
		t.Fatal(err)
	}
	c.Sync()
	srv := NewServer(c)

	longBatch, _ := json.Marshal(RankBatchRequest{Requests: make([]RankRequest, MaxBatchRequests+1)})
	longFeedbackBatch := AppendFeedbackBatchRequest(nil, make([]Event, MaxFeedbackBatchEvents+1))
	badEventBatch := AppendFeedbackBatchRequest(nil, []Event{{Page: 1, Slot: 1}, {Page: 2, Slot: 0}})
	cases := []struct {
		name, method, path, contentType string
		body                            []byte
		status                          int
		code                            string
	}{
		{"rank method", http.MethodGet, "/v1/rank", "", nil, 405, ErrCodeMethodNotAllowed},
		{"rank bad json", http.MethodPost, "/v1/rank", "application/json", []byte("{not json"), 400, ErrCodeBadRequest},
		{"rank negative n", http.MethodPost, "/v1/rank", "application/json", []byte(`{"n":-3}`), 400, ErrCodeBadRequest},
		{"rank unknown arm", http.MethodPost, "/v1/rank", "application/json", []byte(`{"arm":"nope"}`), 400, ErrCodeBadRequest},
		{"feedback method", http.MethodGet, "/v1/feedback", "", nil, 405, ErrCodeMethodNotAllowed},
		{"feedback bad json", http.MethodPost, "/v1/feedback", "application/json", []byte("<xml>"), 400, ErrCodeBadRequest},
		{"feedback negative counts", http.MethodPost, "/v1/feedback", "application/json",
			[]byte(`{"events":[{"page":1,"slot":1,"clicks":-1}]}`), 400, ErrCodeBadRequest},
		{"feedback bad slot", http.MethodPost, "/v1/feedback", "application/json",
			[]byte(`{"events":[{"page":1,"slot":0,"clicks":1}]}`), 400, ErrCodeBadRequest},
		{"stats method", http.MethodPost, "/v1/stats", "", nil, 405, ErrCodeMethodNotAllowed},
		{"experiment method", http.MethodPost, "/v1/experiment", "", nil, 405, ErrCodeMethodNotAllowed},
		{"batch method", http.MethodGet, "/v1/rank/batch", "", nil, 405, ErrCodeMethodNotAllowed},
		{"batch bad json", http.MethodPost, "/v1/rank/batch", "application/json", []byte("{not json"), 400, ErrCodeBadRequest},
		{"batch empty", http.MethodPost, "/v1/rank/batch", "application/json", []byte(`{"requests":[]}`), 400, ErrCodeBadRequest},
		{"batch oversized", http.MethodPost, "/v1/rank/batch", "application/json", longBatch, 400, ErrCodeBadRequest},
		{"batch bad sub-request", http.MethodPost, "/v1/rank/batch", "application/json",
			[]byte(`{"requests":[{"n":5},{"n":-1}]}`), 400, ErrCodeBadRequest},
		{"batch bad binary frame", http.MethodPost, "/v1/rank/batch", BatchContentType, []byte{0xff, 0x01, 0x02}, 400, ErrCodeBadRequest},
		{"feedback batch method", http.MethodGet, "/v1/feedback/batch", "", nil, 405, ErrCodeMethodNotAllowed},
		{"feedback batch empty", http.MethodPost, "/v1/feedback/batch", BatchContentType, AppendFeedbackBatchRequest(nil, nil), 400, ErrCodeBadRequest},
		{"feedback batch oversized", http.MethodPost, "/v1/feedback/batch", BatchContentType, longFeedbackBatch, 400, ErrCodeBadRequest},
		{"feedback batch bad event", http.MethodPost, "/v1/feedback/batch", BatchContentType, badEventBatch, 400, ErrCodeBadRequest},
		{"feedback batch bad binary frame", http.MethodPost, "/v1/feedback/batch", BatchContentType, []byte{0xff, 0x01}, 400, ErrCodeBadRequest},
		{"rank n -1", http.MethodPost, "/v1/rank", "application/json", []byte(`{"n":-1}`), 400, ErrCodeBadRequest},
		{"batch n -1", http.MethodPost, "/v1/rank/batch", "application/json", []byte(`{"requests":[{"n":-1}]}`), 400, ErrCodeBadRequest},
		{"batch unknown arm", http.MethodPost, "/v1/rank/batch", "application/json", []byte(`{"requests":[{"arm":"nope"}]}`), 400, ErrCodeBadRequest},
		{"binary batch unknown arm", http.MethodPost, "/v1/rank/batch", BatchContentType,
			AppendRankBatchRequest(nil, []RankRequest{{Arm: "nope"}}), 400, ErrCodeBadRequest},
	}
	// One resolver validates /v1/rank and every batch sub-request, in
	// either codec: the same fault gets the same message, the batch's
	// prefixed with the sub-request's position.
	wantMessage := map[string]string{
		"rank n -1":                "n must be >= 0, got -1",
		"rank unknown arm":         `unknown arm "nope"`,
		"batch n -1":               "request 0: n must be >= 0, got -1",
		"batch unknown arm":        `request 0: unknown arm "nope"`,
		"binary batch unknown arm": `request 0: unknown arm "nope"`,
	}
	for _, tc := range cases {
		w := do(t, srv, tc.method, tc.path, tc.contentType, tc.body)
		if w.Code != tc.status {
			t.Fatalf("%s: status %d body %q, want %d", tc.name, w.Code, w.Body.String(), tc.status)
		}
		info := decodeEnvelope(t, w)
		if info.Code != tc.code {
			t.Fatalf("%s: envelope code %q, want %q", tc.name, info.Code, tc.code)
		}
		if msg, ok := wantMessage[tc.name]; ok && info.Message != msg {
			t.Fatalf("%s: envelope message %q, want %q", tc.name, info.Message, msg)
		}
		if info.RetryAfterMS != 0 {
			t.Fatalf("%s: client error carries retry_after_ms %d", tc.name, info.RetryAfterMS)
		}
		if w.Header().Get("Retry-After") != "" {
			t.Fatalf("%s: client error carries Retry-After header", tc.name)
		}
	}
	// The batch's positional errors name the offending sub-request.
	w := do(t, srv, http.MethodPost, "/v1/rank/batch", "application/json",
		[]byte(`{"requests":[{"n":5},{"arm":"nope"}]}`))
	if info := decodeEnvelope(t, w); !strings.Contains(info.Message, "request 1") {
		t.Fatalf("batch error message %q does not name the sub-request", info.Message)
	}
	w = do(t, srv, http.MethodPost, "/v1/feedback/batch", BatchContentType, badEventBatch)
	if info := decodeEnvelope(t, w); !strings.Contains(info.Message, "event 1") {
		t.Fatalf("feedback batch error message %q does not name the event", info.Message)
	}
	// The feedback batch endpoint takes only the binary framing: a JSON
	// body, however valid, is refused with a message naming the type.
	w = do(t, srv, http.MethodPost, "/v1/feedback/batch", "application/json",
		[]byte(`{"events":[{"page":1,"slot":1}]}`))
	if info := decodeEnvelope(t, w); w.Code != http.StatusBadRequest || info.Code != ErrCodeBadRequest || !strings.Contains(info.Message, BatchContentType) {
		t.Fatalf("JSON feedback batch: status %d envelope %+v, want 400 bad_request naming %s", w.Code, info, BatchContentType)
	}
}

// TestErrorEnvelopeRateLimited exhausts a 1-token bucket and checks the
// 429 carries code rate_limited with the retry hint mirrored between the
// Retry-After header (whole seconds) and the body (milliseconds).
func TestErrorEnvelopeRateLimited(t *testing.T) {
	c := newTestCorpus(t, Config{Shards: 1, Seed: 7,
		Limits: Limits{RateLimitRPS: 0.001, RateLimitBurst: 1}})
	if err := c.Add(1, "limited topic", 1); err != nil {
		t.Fatal(err)
	}
	c.Sync()
	srv := NewServer(c)

	if w := postJSON(t, srv, "/v1/rank", RankRequest{Unit: "u1"}); w.Code != http.StatusOK {
		t.Fatalf("first request: %d", w.Code)
	}
	w := postJSON(t, srv, "/v1/rank", RankRequest{Unit: "u1"})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("second request: %d, want 429", w.Code)
	}
	info := decodeEnvelope(t, w)
	if info.Code != ErrCodeRateLimited {
		t.Fatalf("envelope code %q, want %q", info.Code, ErrCodeRateLimited)
	}
	if info.RetryAfterMS <= 0 {
		t.Fatalf("429 envelope retry_after_ms = %d, want > 0", info.RetryAfterMS)
	}
	secs, err := strconv.Atoi(w.Header().Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After header %q not an integer", w.Header().Get("Retry-After"))
	}
	// Header is the body hint rounded up to whole seconds.
	if want := (info.RetryAfterMS + 999) / 1000; int64(secs) != want {
		t.Fatalf("Retry-After %ds does not mirror retry_after_ms %d", secs, info.RetryAfterMS)
	}
}

// TestErrorEnvelopeOverloadAndWAL drives the two server-side backoff
// paths — a full feedback queue (429 overloaded) and a failing WAL (503
// unavailable) — and checks both answer the envelope with retry hints.
func TestErrorEnvelopeOverloadAndWAL(t *testing.T) {
	inject := &faultfs.Injector{}
	c, err := NewCorpus(Config{
		Shards:   1,
		QueueLen: 1,
		Seed:     7,
		Durability: Durability{
			DataDir:       t.TempDir(),
			FaultInjector: inject,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := NewServer(c)
	if err := c.Add(1, "storm topic", 1); err != nil {
		t.Fatal(err)
	}
	c.Sync()

	// 503: every fsync fails, so the batch cannot be made durable.
	inject.FailSyncs(-1)
	w := postJSON(t, srv, "/v1/feedback", FeedbackRequest{Events: []Event{{Page: 1, Slot: 1, Impressions: 1}}})
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("feedback during WAL failure: %d, want 503", w.Code)
	}
	info := decodeEnvelope(t, w)
	if info.Code != ErrCodeUnavailable || info.RetryAfterMS <= 0 {
		t.Fatalf("503 envelope = %+v, want code %q with a retry hint", info, ErrCodeUnavailable)
	}
	inject.Clear()

	// 429: stall commits so the 1-deep queue fills, then overflow it.
	inject.SetLatency(300 * time.Millisecond)
	release := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() { release <- c.TryFeedback([]Event{{Page: 1, Slot: 1, Impressions: 1}}) }()
		time.Sleep(50 * time.Millisecond)
	}
	w = postJSON(t, srv, "/v1/feedback", FeedbackRequest{Events: []Event{{Page: 1, Slot: 1, Impressions: 1}}})
	inject.SetLatency(0)
	for i := 0; i < 2; i++ {
		if err := <-release; err != nil {
			t.Fatalf("stalled batch %d: %v", i, err)
		}
	}
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("feedback into full queue: %d, want 429", w.Code)
	}
	info = decodeEnvelope(t, w)
	if info.Code != ErrCodeOverloaded || info.RetryAfterMS <= 0 {
		t.Fatalf("429 envelope = %+v, want code %q with a retry hint", info, ErrCodeOverloaded)
	}
}

// TestRankBatchJSONBinaryEquivalence serves the same seeded batch
// through both codecs and checks they rank identically — and that the
// server's streamed binary frame is byte-identical to the package
// encoder run over the JSON responses (the property the client-side
// decoder relies on).
func TestRankBatchJSONBinaryEquivalence(t *testing.T) {
	c := newTestCorpus(t, Config{Shards: 2, Seed: 9, Arms: []Arm{
		{Name: "control", Policy: pspec("deterministic", 0, 0, 0), Weight: 1},
		{Name: "explore", Policy: pspec("selective", 1, 0.3, 0), Weight: 1},
	}})
	for i := 0; i < 30; i++ {
		pop := float64(30 - i)
		if i%4 == 0 {
			pop = 0
		}
		if err := c.Add(i, fmt.Sprintf("batch topic page%d", i), pop); err != nil {
			t.Fatal(err)
		}
	}
	c.Sync()
	srv := NewServer(c)

	seeds := []uint64{1, 2, 3, 4}
	reqs := make([]RankRequest, len(seeds))
	for i, s := range seeds {
		seed := s
		reqs[i] = RankRequest{Query: "batch topic", N: 8, Unit: fmt.Sprintf("u%d", i), Seed: &seed}
	}
	jsonBody, _ := json.Marshal(RankBatchRequest{Requests: reqs})
	jw := do(t, srv, http.MethodPost, "/v1/rank/batch", "application/json", jsonBody)
	if jw.Code != http.StatusOK {
		t.Fatalf("JSON batch: %d %s", jw.Code, jw.Body.String())
	}
	var jresp RankBatchResponse
	if err := json.Unmarshal(jw.Body.Bytes(), &jresp); err != nil {
		t.Fatal(err)
	}
	if len(jresp.Responses) != len(reqs) {
		t.Fatalf("JSON batch returned %d responses, want %d", len(jresp.Responses), len(reqs))
	}

	binBody := AppendRankBatchRequest(nil, reqs)
	bw := do(t, srv, http.MethodPost, "/v1/rank/batch", BatchContentType, binBody)
	if bw.Code != http.StatusOK {
		t.Fatalf("binary batch: %d %s", bw.Code, bw.Body.String())
	}
	if ct := bw.Header().Get("Content-Type"); ct != BatchContentType {
		t.Fatalf("binary batch Content-Type %q, want %q", ct, BatchContentType)
	}
	bresp, err := DecodeRankBatchResponse(bw.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(bresp) != len(reqs) {
		t.Fatalf("binary batch returned %d responses, want %d", len(bresp), len(reqs))
	}

	// Same seeds, same corpus state: the two codecs must carry the same
	// ranking (the binary frame does not echo the query).
	for i := range reqs {
		j, b := jresp.Responses[i], bresp[i]
		if j.Arm != b.Arm || j.Epoch != b.Epoch || !reflect.DeepEqual(j.Results, b.Results) {
			t.Fatalf("response %d diverges between codecs:\nJSON   %+v\nbinary %+v", i, j, b)
		}
	}
	// The server's streamed frame equals the package encoder's output for
	// the same responses (queries cleared: they are not on the wire).
	canonical := make([]RankResponse, len(jresp.Responses))
	copy(canonical, jresp.Responses)
	for i := range canonical {
		canonical[i].Query = ""
	}
	if want := AppendRankBatchResponse(nil, canonical); !bytes.Equal(bw.Body.Bytes(), want) {
		t.Fatalf("server binary frame differs from AppendRankBatchResponse:\ngot  %x\nwant %x",
			bw.Body.Bytes(), want)
	}
}

// TestFeedbackBatchJSONBinaryEquivalence ingests the same events through
// both feedback codecs — JSON /v1/feedback and binary
// /v1/feedback/batch: both 202, both fold every event into the corpus,
// the binary acknowledgment is byte-identical to the package encoder,
// and the batch endpoint has no legacy alias.
func TestFeedbackBatchJSONBinaryEquivalence(t *testing.T) {
	c := newTestCorpus(t, Config{Shards: 2, Seed: 13})
	for i := 0; i < 8; i++ {
		if err := c.Add(i, fmt.Sprintf("ingest topic page%d", i), float64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	c.Sync()
	srv := NewServer(c)

	events := []Event{
		{Page: 0, Slot: 1, Impressions: 5, Clicks: 1},
		{Page: 1, Slot: 2, Impressions: 7, Clicks: 0, Arm: "x", Unit: "u1"},
		{Page: 2, Slot: 1, Impressions: 3, Clicks: 3},
	}
	jsonBody, _ := json.Marshal(FeedbackRequest{Events: events})
	jw := do(t, srv, http.MethodPost, "/v1/feedback", "application/json", jsonBody)
	if jw.Code != http.StatusAccepted {
		t.Fatalf("JSON feedback: %d %s", jw.Code, jw.Body.String())
	}
	var jresp FeedbackResponse
	if err := json.Unmarshal(jw.Body.Bytes(), &jresp); err != nil {
		t.Fatal(err)
	}
	if jresp.Accepted != len(events) {
		t.Fatalf("JSON feedback accepted %d, want %d", jresp.Accepted, len(events))
	}

	binBody := AppendFeedbackBatchRequest(nil, events)
	bw := do(t, srv, http.MethodPost, "/v1/feedback/batch", BatchContentType, binBody)
	if bw.Code != http.StatusAccepted {
		t.Fatalf("binary feedback batch: %d %s", bw.Code, bw.Body.String())
	}
	if ct := bw.Header().Get("Content-Type"); ct != BatchContentType {
		t.Fatalf("binary feedback batch Content-Type %q, want %q", ct, BatchContentType)
	}
	accepted, err := DecodeFeedbackBatchResponse(bw.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if accepted != len(events) {
		t.Fatalf("binary feedback batch accepted %d, want %d", accepted, len(events))
	}
	if want := AppendFeedbackBatchResponse(nil, len(events)); !bytes.Equal(bw.Body.Bytes(), want) {
		t.Fatalf("server binary ack differs from AppendFeedbackBatchResponse:\ngot  %x\nwant %x",
			bw.Body.Bytes(), want)
	}

	// Both posts folded in: every impression and click applied, twice.
	c.Sync()
	stats := c.Stats()
	if stats.ImpressionsApplied != 2*(5+7+3) || stats.ClicksApplied != 2*(1+0+3) {
		t.Fatalf("applied impressions=%d clicks=%d, want %d and %d",
			stats.ImpressionsApplied, stats.ClicksApplied, 2*(5+7+3), 2*(1+0+3))
	}

	// The batch endpoint is new with /v1: no legacy alias exists.
	if w := do(t, srv, http.MethodPost, "/feedback/batch", BatchContentType, binBody); w.Code != http.StatusNotFound {
		t.Fatalf("legacy /feedback/batch answered %d, want 404 (new endpoint, no alias)", w.Code)
	}
}

// TestRankBatchAccounting checks the batch endpoint's metering contract:
// every sub-request counts in rank_requests, but the rate limiter
// charges the whole batch one token.
func TestRankBatchAccounting(t *testing.T) {
	c := newTestCorpus(t, Config{Shards: 1, Seed: 11,
		Limits: Limits{RateLimitRPS: 0.001, RateLimitBurst: 1}})
	if err := c.Add(1, "meter topic", 1); err != nil {
		t.Fatal(err)
	}
	c.Sync()
	srv := NewServer(c)

	reqs := make([]RankRequest, 16)
	for i := range reqs {
		reqs[i] = RankRequest{N: 5, Unit: "u1"}
	}
	body, _ := json.Marshal(RankBatchRequest{Requests: reqs})
	if w := do(t, srv, http.MethodPost, "/v1/rank/batch", "application/json", body); w.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", w.Code, w.Body.String())
	}
	if got := srv.rankRequests.Load(); got != uint64(len(reqs)) {
		t.Fatalf("rank_requests = %d after a %d-request batch, want %d", got, len(reqs), len(reqs))
	}
	// One token was spent for the whole batch; the next call (same unit)
	// must be the one that trips the limiter.
	if w := do(t, srv, http.MethodPost, "/v1/rank/batch", "application/json", body); w.Code != http.StatusTooManyRequests {
		t.Fatalf("second batch: %d, want 429 (one token per batch)", w.Code)
	}
}

// TestRankBatchThroughputMultiple pins the batch endpoint's reason to
// exist: the same budget of rank requests pushed over HTTP through
// /v1/rank/batch in the binary codec must finish far faster than one
// JSON round trip per request. An idle machine shows ≥10×; the bar
// keeps headroom for noisy CI machines and the test logs the multiple.
func TestRankBatchThroughputMultiple(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput comparison is wall-clock bound")
	}
	const (
		requests = 4000
		batch    = 64
	)
	c := newTestCorpus(t, Config{Shards: 4, Seed: 23})
	for i := 0; i < 50; i++ {
		if err := c.Add(i, fmt.Sprintf("gadgets review page%d", i), float64(50-i)*0.05); err != nil {
			t.Fatal(err)
		}
	}
	c.Sync()
	srv := httptest.NewServer(NewServer(c))
	defer srv.Close()
	client := &http.Client{Timeout: 10 * time.Second}
	post := func(path, contentType string, body []byte) []byte {
		t.Helper()
		resp, err := client.Post(srv.URL+path, contentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s (err %v)", path, resp.StatusCode, out, err)
		}
		return out
	}
	// Top-1 keeps each response small, so the comparison measures the
	// round trips the batch protocol amortizes.
	req := RankRequest{Query: "gadgets review", N: 1}

	start := time.Now()
	body, _ := json.Marshal(req)
	for i := 0; i < requests; i++ {
		post("/v1/rank", "application/json", body)
	}
	single := time.Since(start)

	reqs := make([]RankRequest, batch)
	for i := range reqs {
		reqs[i] = req
	}
	body = AppendRankBatchRequest(nil, reqs)
	start = time.Now()
	for done := 0; done < requests; done += batch {
		resps, err := DecodeRankBatchResponse(post("/v1/rank/batch", BatchContentType, body))
		if err != nil || len(resps) != batch || len(resps[0].Results) != 1 {
			t.Fatalf("batch response: %d responses, err %v", len(resps), err)
		}
	}
	batched := time.Since(start)

	multiple := single.Seconds() / batched.Seconds()
	t.Logf("%d ranks: single %v, batched %v: %.1fx", requests, single, batched, multiple)
	if multiple < 4 {
		t.Fatalf("batched throughput only %.1fx single-request (%v vs %v)", multiple, batched, single)
	}
}

// TestConcurrentAddDenseTableConservation is the dense-table -race
// stress: concurrent Adds grow the chunk directory while feedback
// writers mutate slot atomics and rank/Page readers traverse published
// views. The popularity-conservation assertions from the HTTP stress
// suite must hold exactly — any lost update or torn slot fails.
func TestConcurrentAddDenseTableConservation(t *testing.T) {
	const (
		basePages  = 32
		addPages   = 256 // crosses no chunk boundary, but grows seqs well past base
		writers    = 4
		rounds     = 30
		clicksPer  = 2
		initialPop = 1.0
	)
	c := newTestCorpus(t, Config{Shards: 4, Seed: 21, QueueLen: 16})
	for i := 0; i < basePages; i++ {
		if err := c.Add(i, fmt.Sprintf("dense topic page%d", i), initialPop); err != nil {
			t.Fatal(err)
		}
	}
	c.Sync()
	before := c.Stats()

	var wg sync.WaitGroup
	// Adders: grow the table concurrently with everything else.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < addPages; i++ {
			if err := c.Add(basePages+i, fmt.Sprintf("dense topic fresh%d", i), 0); err != nil {
				t.Errorf("add %d: %v", basePages+i, err)
				return
			}
		}
	}()
	// Feedback writers: clicks on the stable base pages only, so the
	// expected totals are exact.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				var events []Event
				for p := w % writers; p < basePages; p += writers {
					events = append(events, Event{Page: p, Slot: 1 + p%10, Impressions: 1, Clicks: clicksPer})
				}
				if err := c.Feedback(events); err != nil {
					t.Errorf("feedback: %v", err)
					return
				}
			}
		}(w)
	}
	// Readers: ranked lists must stay well-formed throughout.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				res, err := c.Rank("dense topic", 20)
				if err != nil {
					t.Errorf("rank: %v", err)
					return
				}
				seen := make(map[int]bool, len(res))
				for _, r := range res {
					if seen[r.ID] {
						t.Errorf("page %d served twice in one list", r.ID)
						return
					}
					seen[r.ID] = true
				}
				if _, ok := c.Page(g*7 + i%basePages); !ok && g*7+i%basePages < basePages {
					t.Errorf("base page %d vanished", g*7+i%basePages)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	c.Sync()

	after := c.Stats()
	if got, want := after.Pages, basePages+addPages; got != want {
		t.Fatalf("pages = %d, want %d", got, want)
	}
	// Each base page gets rounds × clicksPer clicks from exactly one
	// writer; the fresh pages get none.
	wantClicks := uint64(basePages * rounds * clicksPer)
	if got := after.ClicksApplied - before.ClicksApplied; got != wantClicks {
		t.Fatalf("clicks applied = %d, want %d", got, wantClicks)
	}
	gained := after.TotalPopularity - before.TotalPopularity
	if gained != float64(wantClicks) {
		t.Fatalf("popularity gained %v, want %v (lost updates)", gained, wantClicks)
	}
	for i := 0; i < basePages; i++ {
		st, ok := c.Page(i)
		if !ok {
			t.Fatalf("page %d vanished", i)
		}
		if want := initialPop + float64(rounds*clicksPer); st.Popularity != want {
			t.Fatalf("page %d popularity %v, want %v", i, st.Popularity, want)
		}
	}
	if after.ZeroAware != addPages {
		t.Fatalf("zero-aware = %d, want the %d unclicked fresh pages", after.ZeroAware, addPages)
	}
}

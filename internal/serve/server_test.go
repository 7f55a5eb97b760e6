package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func newTestServer(t *testing.T) (*Server, *Corpus) {
	t.Helper()
	c := newTestCorpus(t, Config{Shards: 2, Seed: 1})
	seedCorpus(t, c, 15, 900)
	return NewServer(c), c
}

func postJSON(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestRankHandlerRoundTrip(t *testing.T) {
	srv, _ := newTestServer(t)
	seed := uint64(21)
	w := postJSON(t, srv, "/v1/rank", RankRequest{N: 10, Seed: &seed})
	if w.Code != http.StatusOK {
		t.Fatalf("/rank status %d: %s", w.Code, w.Body)
	}
	var resp RankResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 10 {
		t.Fatalf("served %d results, want 10", len(resp.Results))
	}
	for i, item := range resp.Results {
		if item.Slot != i+1 {
			t.Fatalf("result %d has slot %d", i, item.Slot)
		}
	}
	// Same seed, same corpus epoch → identical list.
	w2 := postJSON(t, srv, "/v1/rank", RankRequest{N: 10, Seed: &seed})
	var resp2 RankResponse
	if err := json.Unmarshal(w2.Body.Bytes(), &resp2); err != nil {
		t.Fatal(err)
	}
	for i := range resp.Results {
		if resp.Results[i] != resp2.Results[i] {
			t.Fatalf("seeded rank not reproducible at slot %d: %+v vs %+v",
				i+1, resp.Results[i], resp2.Results[i])
		}
	}
}

func TestRankHandlerQueryAndValidation(t *testing.T) {
	srv, _ := newTestServer(t)
	w := postJSON(t, srv, "/v1/rank", RankRequest{Query: "testing topic", N: 50})
	if w.Code != http.StatusOK {
		t.Fatalf("/rank status %d: %s", w.Code, w.Body)
	}
	var resp RankResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 16 {
		t.Fatalf("query served %d results, want 16", len(resp.Results))
	}

	w = postJSON(t, srv, "/v1/rank", RankRequest{N: -3})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("negative n: status %d, want 400", w.Code)
	}

	req := httptest.NewRequest(http.MethodPost, "/v1/rank", strings.NewReader("{not json"))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad JSON: status %d, want 400", rec.Code)
	}

	req = httptest.NewRequest(http.MethodGet, "/v1/rank", nil)
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /rank: status %d, want 405", rec.Code)
	}
}

func TestFeedbackHandlerRoundTrip(t *testing.T) {
	srv, c := newTestServer(t)
	w := postJSON(t, srv, "/v1/feedback", FeedbackRequest{Events: []Event{
		{Page: 900, Slot: 4, Impressions: 1, Clicks: 1},
		{Page: 0, Slot: 1, Impressions: 1},
	}})
	if w.Code != http.StatusAccepted {
		t.Fatalf("/feedback status %d: %s", w.Code, w.Body)
	}
	var resp FeedbackResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 2 {
		t.Fatalf("accepted %d, want 2", resp.Accepted)
	}
	c.Sync()
	if st, _ := c.Page(900); !st.Aware || st.Popularity != 1 {
		t.Fatalf("feedback not applied: %+v", st)
	}

	w = postJSON(t, srv, "/v1/feedback", FeedbackRequest{Events: []Event{{Page: 1, Slot: 1, Clicks: -2}}})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("negative clicks: status %d, want 400", w.Code)
	}

	w = postJSON(t, srv, "/v1/feedback", FeedbackRequest{Events: []Event{{Page: 1, Slot: 0, Clicks: 1}}})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("slot 0: status %d, want 400", w.Code)
	}
}

func TestStatsAndHealthz(t *testing.T) {
	srv, c := newTestServer(t)
	postJSON(t, srv, "/v1/rank", RankRequest{})
	postJSON(t, srv, "/v1/feedback", FeedbackRequest{Events: []Event{
		{Page: 0, Slot: 1, Impressions: 3, Clicks: 1},
		{Page: 1, Slot: 2, Impressions: 3},
	}})
	c.Sync()

	req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/stats status %d", rec.Code)
	}
	var st StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.RankRequests != 1 || st.FeedbackRequests != 1 {
		t.Fatalf("request counters = %d/%d, want 1/1", st.RankRequests, st.FeedbackRequests)
	}
	if st.Pages != 16 || st.ImpressionsApplied != 6 || st.ClicksApplied != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if len(st.Slots) != 2 || st.Slots[0] != (SlotStats{Slot: 1, Impressions: 3, Clicks: 1}) ||
		st.Slots[1] != (SlotStats{Slot: 2, Impressions: 3}) {
		t.Fatalf("slot telemetry = %+v", st.Slots)
	}

	req = httptest.NewRequest(http.MethodGet, "/v1/healthz", nil)
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/healthz status %d", rec.Code)
	}
}

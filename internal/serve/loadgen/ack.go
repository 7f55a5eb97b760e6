// AckRecorder: the middleware the chaos scenarios (and the crash tests)
// hold the service to its word with. It wraps the service handler and
// records, per page, the feedback totals of every batch the service
// ACKNOWLEDGED with 202 — the client-visible durability promise. After
// a crash, a fault storm or an overload run, recovered state is compared
// against exactly this ledger: anything acknowledged and then lost is a
// broken promise; anything refused (429/503) was never promised at all.
package loadgen

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"

	"repro/internal/serve"
)

// AckRecorder is an http.Handler wrapper that ledgers acknowledged
// feedback. Safe for concurrent use.
type AckRecorder struct {
	inner http.Handler
	mu    sync.Mutex
	imps  map[int]int64
	clks  map[int]int64
}

// NewAckRecorder wraps the service handler. inner may be nil when the
// recorder will only ever serve through Wrap.
func NewAckRecorder(inner http.Handler) *AckRecorder {
	return &AckRecorder{inner: inner, imps: map[int]int64{}, clks: map[int]int64{}}
}

func (a *AckRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	a.serveVia(a.inner, w, r)
}

// Wrap returns a handler that serves through inner but ledgers into
// this recorder — one shared ledger across many handlers. A cluster
// threads the same recorder through every node's front door: whichever
// door acknowledges a batch, the promise lands in one place, and the
// ledger survives any individual node's death.
func (a *AckRecorder) Wrap(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		a.serveVia(inner, w, r)
	})
}

func (a *AckRecorder) serveVia(inner http.Handler, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost || r.URL.Path != "/v1/feedback" {
		inner.ServeHTTP(w, r)
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	rec := httptest.NewRecorder()
	inner.ServeHTTP(rec, r)
	if rec.Code == http.StatusAccepted {
		var req serve.FeedbackRequest
		if err := json.Unmarshal(body, &req); err == nil {
			a.mu.Lock()
			for _, e := range req.Events {
				a.imps[e.Page] += int64(e.Impressions)
				a.clks[e.Page] += int64(e.Clicks)
			}
			a.mu.Unlock()
		}
	}
	for k, vs := range rec.Header() {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(rec.Code)
	_, _ = w.Write(rec.Body.Bytes())
}

// Acked returns copies of the per-page acknowledged impression and
// click ledgers.
func (a *AckRecorder) Acked() (imps, clks map[int]int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	imps = make(map[int]int64, len(a.imps))
	clks = make(map[int]int64, len(a.clks))
	for k, v := range a.imps {
		imps[k] = v
	}
	for k, v := range a.clks {
		clks[k] = v
	}
	return imps, clks
}

// Totals returns the summed acknowledged impressions and clicks.
func (a *AckRecorder) Totals() (imps, clks int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, v := range a.imps {
		imps += v
	}
	for _, v := range a.clks {
		clks += v
	}
	return imps, clks
}

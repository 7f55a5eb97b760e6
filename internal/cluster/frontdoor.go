package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/serve"
)

// frontDoorTimeout bounds one proxied sub-request.
const frontDoorTimeout = 5 * time.Second

// peerIdleConns is how many idle keep-alive connections a node keeps to
// each peer's API. One front-door post holds one connection per leader
// it fans out to for the whole quorum wait, so the pool must cover the
// posts in flight at once; net/http's default of 2 per host closes and
// re-dials the rest on every burst. Idle connections are cheap and the
// peer set is small.
const peerIdleConns = 64

// newPeerClient builds the HTTP client a node reaches its peers' APIs
// with; the node closes its idle connections on teardown.
func newPeerClient() *http.Client {
	return &http.Client{
		Timeout:   frontDoorTimeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: peerIdleConns, IdleConnTimeout: 90 * time.Second},
		// Keep redirects off: everything we proxy is a direct API hit.
		CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
	}
}

// FrontDoor is a node's public face in the cluster: it routes writes
// to the shard leaders (splitting a feedback post by the same page-ID
// shard hash the corpus partitions by) and serves reads locally,
// failing over to a peer when the local replica is stale. A client may
// point at ANY node's front door and see the whole cluster; the loadgen
// chaos harness points at one and re-resolves to another when it dies.
type FrontDoor struct {
	node   *Node
	coord  Coordinator
	client *http.Client
}

// NewFrontDoor wraps the node's API with cluster routing.
func NewFrontDoor(n *Node) *FrontDoor {
	return &FrontDoor{node: n, coord: n.coord, client: n.peers}
}

func (fd *FrontDoor) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/v1/feedback":
		fd.serveFeedback(w, r, false)
	case r.Method == http.MethodPost && p == "/v1/feedback/batch":
		fd.serveFeedback(w, r, true)
	case rankPath(p):
		fd.serveRead(w, r)
	default:
		// Stats, healthz, experiment: answer locally — they describe
		// this node.
		fd.node.Handler().ServeHTTP(w, r)
	}
}

// errorOut writes the standard envelope.
func errorOut(w http.ResponseWriter, status int, code, msg string, retryMS int64) {
	w.Header().Set("Content-Type", "application/json")
	if retryMS > 0 {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(serve.ErrorEnvelope{Error: serve.ErrorInfo{
		Code: code, Message: msg, RetryAfterMS: retryMS,
	}})
}

// leaderVerdict is one shard leader's answer to its part of a post.
type leaderVerdict struct {
	leader string
	status int    // the leader's HTTP status; 202 is acceptance
	body   []byte // its reply body, relayed when status is not 202
	err    error  // the leader could not be reached at all
}

// serveFeedback decodes and validates a feedback post ONCE, exactly as
// the endpoint it arrived on would (batch: /v1/feedback/batch, binary
// framing only), splits the events by shard leader and forwards every
// sub-batch at the same time, one post per leader (postFeedback: the
// binary batch framing), so the post costs the slowest leader's
// commit-and-quorum wait rather than the sum of them, and each leader
// decodes its part once more, with no JSON. 202 only
// when every leader accepted its part; otherwise exactly one failure is
// answered, the lowest leader ID's. A partial acceptance answers 503 so
// the client retries the whole batch — the apply path is
// idempotence-free by design, but retried impressions are the same
// double-count exposure the single-node server already has on a lost
// 202; the ledger asserts no UNDER-count, which holds.
func (fd *FrontDoor) serveFeedback(w http.ResponseWriter, r *http.Request, batch bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 8<<20))
	if err != nil {
		errorOut(w, http.StatusBadRequest, "bad_request", err.Error(), 0)
		return
	}
	contentType := r.Header.Get("Content-Type")
	events, err := fd.node.api.DecodeFeedbackPost(batch, contentType, body)
	if err != nil {
		errorOut(w, http.StatusBadRequest, "bad_request", err.Error(), 0)
		return
	}
	shards := fd.node.corpus.Shards()
	byLeader := make(map[string][]serve.Event)
	for _, ev := range events {
		leader, _ := fd.coord.Leader(serve.ShardIndex(ev.Page, shards))
		byLeader[leader] = append(byLeader[leader], ev)
	}
	verdicts := make([]leaderVerdict, 0, len(byLeader))
	for leader := range byLeader {
		verdicts = append(verdicts, leaderVerdict{leader: leader})
	}
	sort.Slice(verdicts, func(i, j int) bool { return verdicts[i].leader < verdicts[j].leader })
	var wg sync.WaitGroup
	for i := range verdicts {
		v := &verdicts[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			v.status, v.body, v.err = fd.postFeedback(v.leader, byLeader[v.leader])
		}()
	}
	wg.Wait()
	for _, v := range verdicts {
		if v.err != nil {
			errorOut(w, http.StatusServiceUnavailable, "leader_unreachable",
				fmt.Sprintf("shard leader %s: %v", v.leader, v.err), 1000)
			return
		}
		if v.status != http.StatusAccepted {
			// Relay the leader's verdict (429 backpressure, 503
			// not-leader during failover, ...) untouched so the
			// client's retry logic sees the real signal.
			w.Header().Set("Content-Type", "application/json")
			if v.status == http.StatusTooManyRequests || v.status == http.StatusServiceUnavailable {
				w.Header().Set("Retry-After", "1")
			}
			w.WriteHeader(v.status)
			_, _ = w.Write(v.body)
			return
		}
	}
	if batch {
		w.Header().Set("Content-Type", serve.BatchContentType)
		w.WriteHeader(http.StatusAccepted)
		_, _ = w.Write(serve.AppendFeedbackBatchResponse(nil, len(events)))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	_ = json.NewEncoder(w).Encode(serve.FeedbackResponse{Accepted: len(events)})
}

// postFeedback sends one leader's sub-batch as ONE post, so the leader
// admits, commits and quorum-waits it all or nothing: in the binary
// framing to /v1/feedback/batch, or — only when a JSON /v1/feedback
// post puts more on one leader than that endpoint's event cap — as
// JSON to /v1/feedback, which has no cap. The node itself is reached
// through its own handler directly, no socket, so the local path honors
// the same contract as a peer's.
func (fd *FrontDoor) postFeedback(leader string, events []serve.Event) (status int, reply []byte, err error) {
	path, contentType := "/v1/feedback/batch", serve.BatchContentType
	var payload []byte
	if len(events) <= serve.MaxFeedbackBatchEvents {
		payload = serve.AppendFeedbackBatchRequest(nil, events)
	} else {
		path, contentType = "/v1/feedback", "application/json"
		if payload, err = json.Marshal(serve.FeedbackRequest{Events: events}); err != nil {
			return 0, nil, err
		}
	}
	if leader == fd.node.cfg.ID {
		rec := newBufferResponse()
		req, _ := http.NewRequest(http.MethodPost, path, bytes.NewReader(payload))
		req.Header.Set("Content-Type", contentType)
		fd.node.Handler().ServeHTTP(rec, req)
		return rec.status, rec.body.Bytes(), nil
	}
	base := fd.coord.APIURL(leader)
	if base == "" {
		return 0, nil, fmt.Errorf("no API address for %s", leader)
	}
	resp, err := fd.client.Post(strings.TrimRight(base, "/")+path, contentType, bytes.NewReader(payload))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	rb, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, rb, nil
}

// serveRead answers rank reads: local replica first; if the local
// guard refuses (stale replica mid-failover), retry the same request
// against each peer until one answers.
func (fd *FrontDoor) serveRead(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 8<<20))
	if err != nil {
		errorOut(w, http.StatusBadRequest, "bad_request", err.Error(), 0)
		return
	}
	rec := newBufferResponse()
	req, _ := http.NewRequest(r.Method, r.URL.Path, bytes.NewReader(body))
	req.Header = r.Header.Clone()
	fd.node.Handler().ServeHTTP(rec, req)
	if rec.status != http.StatusServiceUnavailable {
		rec.copyTo(w)
		return
	}
	for _, peer := range fd.coord.Nodes() {
		if peer == fd.node.cfg.ID {
			continue
		}
		base := fd.coord.APIURL(peer)
		if base == "" {
			continue
		}
		preq, err := http.NewRequest(r.Method, strings.TrimRight(base, "/")+r.URL.Path, bytes.NewReader(body))
		if err != nil {
			continue
		}
		preq.Header = r.Header.Clone()
		resp, err := fd.client.Do(preq)
		if err != nil {
			continue
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			resp.Body.Close()
			continue
		}
		defer resp.Body.Close()
		for k, vs := range resp.Header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		_, _ = io.Copy(w, resp.Body)
		return
	}
	// Every replica is stale or unreachable: surface the local 503.
	rec.copyTo(w)
}

// bufferResponse is a minimal in-memory http.ResponseWriter for
// in-process sub-requests (no httptest dependency outside tests).
type bufferResponse struct {
	status int
	header http.Header
	body   bytes.Buffer
}

func newBufferResponse() *bufferResponse {
	return &bufferResponse{status: http.StatusOK, header: make(http.Header)}
}

func (b *bufferResponse) Header() http.Header         { return b.header }
func (b *bufferResponse) WriteHeader(code int)        { b.status = code }
func (b *bufferResponse) Write(p []byte) (int, error) { return b.body.Write(p) }

func (b *bufferResponse) copyTo(w http.ResponseWriter) {
	for k, vs := range b.header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(b.status)
	_, _ = w.Write(b.body.Bytes())
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/serve"
)

func TestArmFlagParsing(t *testing.T) {
	var a armFlags
	for _, v := range []string{
		"control=none@1",
		"treat=selective:1:0.1@3",
		"decay=epsilon-decay:2:0.2:0.02",
	} {
		if err := a.Set(v); err != nil {
			t.Fatalf("Set(%q): %v", v, err)
		}
	}
	want := armFlags{
		{Name: "control", Policy: policy.Spec{Rule: policy.RuleNone}, Weight: 1},
		{Name: "treat", Policy: policy.Spec{Rule: policy.RuleSelective, K: 1, R: 0.1}, Weight: 3},
		{Name: "decay", Policy: policy.Spec{Rule: policy.RuleEpsilonDecay, K: 2, R: 0.2, RMin: 0.02}, Weight: 1},
	}
	if len(a) != len(want) {
		t.Fatalf("parsed %d arms, want %d", len(a), len(want))
	}
	for i := range want {
		if a[i] != want[i] {
			t.Errorf("arm %d = %+v, want %+v", i, a[i], want[i])
		}
	}
	if s := a.String(); !strings.Contains(s, "control=none@1") {
		t.Errorf("String() = %q", s)
	}
	for _, bad := range []string{
		"", "noname", "=selective:1:0.1", "x=wat:1:0.1", "x=selective:1:0.1@w",
	} {
		var b armFlags
		if err := b.Set(bad); err == nil {
			t.Errorf("Set(%q) accepted", bad)
		}
	}
}

// TestRuleAndArmFlagsAgree: the default arm's -rule/-k/-r and an -arm
// spec validate through the same Validate, so the two flags accept and
// refuse the same policies and build the same Spec from them.
func TestRuleAndArmFlagsAgree(t *testing.T) {
	cases := []struct {
		rule string
		k    int
		r    float64
		ok   bool
	}{
		{"selective", 1, 0.1, true},
		{"uniform", 2, 0.25, true},
		{"none", 0, 0, true}, // the deterministic rule never reads k
		{"none", 1, 0.1, true},
		{"deterministic", 0, 0, true},
		{"epsilon-decay", 1, 0.2, true},
		{"selective", 0, 0.1, false},
		{"uniform", 1, 1.5, false},
		{"selective", 1, -0.1, false},
		{"epsilon-decay", 0, 0.2, false},
		{"mystery", 1, 0.1, false},
		{"", 1, 0.1, false},
	}
	for _, tc := range cases {
		spec, ruleErr := ruleSpec(tc.rule, tc.k, tc.r)
		var arms armFlags
		armErr := arms.Set(fmt.Sprintf("a=%s:%d:%g", tc.rule, tc.k, tc.r))
		if (ruleErr == nil) != tc.ok || (armErr == nil) != tc.ok {
			t.Errorf("%s:%d:%g: -rule err %v, -arm err %v, want accepted=%v",
				tc.rule, tc.k, tc.r, ruleErr, armErr, tc.ok)
			continue
		}
		if tc.ok && arms[0].Policy != spec {
			t.Errorf("%s:%d:%g: -rule built %+v, -arm built %+v", tc.rule, tc.k, tc.r, spec, arms[0].Policy)
		}
	}
}

func TestBootstrapFreshFraction(t *testing.T) {
	c, err := serve.NewCorpus(serve.Config{Shards: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := Bootstrap(c, 200, 0.1); err != nil {
		t.Fatal(err)
	}
	c.Sync()
	st := c.Stats()
	if st.Pages != 200 || st.ZeroAware != 20 {
		t.Fatalf("bootstrap stats = %+v, want 200 pages with 20 zero-awareness", st)
	}
}

// TestGracefulShutdownFlushesFeedback simulates the daemon's signal path
// (context cancellation stands in for SIGTERM, which is exactly what
// signal.NotifyContext delivers) and asserts the shutdown contract:
// in-flight requests complete, every acknowledged feedback batch is
// flushed into the shards before exit, the listener is closed, and the
// corpus stays readable.
func TestGracefulShutdownFlushesFeedback(t *testing.T) {
	corpus, err := serve.NewCorpus(serve.Config{Shards: 2, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := corpus.Add(i, fmt.Sprintf("shutdown topic page%d", i), float64(10-i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := corpus.Add(99, "shutdown topic gem", 0); err != nil {
		t.Fatal(err)
	}
	corpus.Sync()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- runServer(ctx, ln, serve.NewServer(corpus), readyNow(corpus), defaultTimeouts()) }()
	base := "http://" + ln.Addr().String()

	// The server must be up: rank something.
	body, _ := json.Marshal(serve.RankRequest{N: 5})
	resp, err := http.Post(base+"/v1/rank", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("server not serving: %v", err)
	}
	resp.Body.Close()

	// Enqueue feedback (clicks promote the gem) right before the signal;
	// the 202 means the batch is in the shard queues, and graceful
	// shutdown promises it is applied before exit.
	fb, _ := json.Marshal(serve.FeedbackRequest{Events: []serve.Event{
		{Page: 99, Slot: 2, Impressions: 1, Clicks: 3},
		{Page: 0, Slot: 1, Impressions: 1, Clicks: 1},
	}})
	resp, err = http.Post(base+"/v1/feedback", "application/json", bytes.NewReader(fb))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("/feedback status %d", resp.StatusCode)
	}

	cancel() // deliver the simulated SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("runServer: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("graceful shutdown hung")
	}

	// Flushed before exit: the acknowledged clicks are applied and the
	// gem is promoted, with no Sync from the test's side after shutdown.
	st := corpus.Stats()
	if st.ClicksApplied != 4 {
		t.Fatalf("clicks applied after shutdown = %d, want 4 (feedback lost)", st.ClicksApplied)
	}
	if gem, _ := corpus.Page(99); !gem.Aware || gem.Popularity != 3 {
		t.Fatalf("gem not promoted before exit: %+v", gem)
	}
	// The corpus stays readable after Close.
	if top := corpus.Top(3); len(top) == 0 {
		t.Fatal("corpus unreadable after shutdown")
	}
	// The listener is really closed.
	if _, err := http.Post(base+"/v1/rank", "application/json", bytes.NewReader(body)); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}

// readyNow wraps an already-built corpus in the ready channel runServer
// takes (main fills it from the recovery goroutine).
func readyNow(c *serve.Corpus) <-chan *serve.Corpus {
	ch := make(chan *serve.Corpus, 1)
	ch <- c
	return ch
}

// TestBootGateSwapsFromRecoveringToReady covers the boot path: while
// recovery runs, /healthz reports recovering and the API refuses with
// 503; after Ready the full API serves.
func TestBootGateSwapsFromRecoveringToReady(t *testing.T) {
	gate := newBootGate()
	srv := httptest.NewServer(gate)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Status string `json:"status"`
		Ready  bool   `json:"ready"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// 503, not 200: readiness probes key on the status code, so a
	// recovering instance must not look ready to a load balancer.
	if resp.StatusCode != http.StatusServiceUnavailable || hz.Status != "recovering" || hz.Ready {
		t.Fatalf("recovering healthz = %d %+v", resp.StatusCode, hz)
	}
	body, _ := json.Marshal(serve.RankRequest{N: 3})
	resp, err = http.Post(srv.URL+"/v1/rank", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/rank during recovery = %d, want 503", resp.StatusCode)
	}

	corpus, err := serve.NewCorpus(serve.Config{Shards: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer corpus.Close()
	if err := corpus.Add(1, "gate topic page", 2); err != nil {
		t.Fatal(err)
	}
	corpus.Sync()
	gate.Ready(serve.NewServer(corpus))

	resp, err = http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var ready serve.HealthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ready.Status != "ready" || !ready.Ready {
		t.Fatalf("post-swap healthz = %+v", ready)
	}
	resp, err = http.Post(srv.URL+"/v1/rank", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/rank after swap = %d, want 200", resp.StatusCode)
	}
}

// TestDurableDaemonRoundTrip drives the daemon's serving path against a
// data dir twice: the first run ingests feedback over HTTP and shuts
// down gracefully, the second recovers and must serve the promoted state
// plus a healthz that reflects the durable corpus.
func TestDurableDaemonRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := serve.Config{Shards: 2, Seed: 8, Durability: serve.Durability{DataDir: dir}}

	run := func(drive func(base string, corpus *serve.Corpus)) {
		corpus, err := serve.NewCorpus(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- runServer(ctx, ln, serve.NewServer(corpus), readyNow(corpus), defaultTimeouts()) }()
		drive("http://"+ln.Addr().String(), corpus)
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("runServer: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("shutdown hung")
		}
	}

	run(func(base string, corpus *serve.Corpus) {
		for i := 0; i < 10; i++ {
			if err := corpus.Add(i, fmt.Sprintf("daemon topic page%d", i), float64(10-i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := corpus.Add(99, "daemon topic gem", 0); err != nil {
			t.Fatal(err)
		}
		corpus.Sync()
		fb, _ := json.Marshal(serve.FeedbackRequest{Events: []serve.Event{
			{Page: 99, Slot: 2, Impressions: 1, Clicks: 3},
		}})
		resp, err := http.Post(base+"/v1/feedback", "application/json", bytes.NewReader(fb))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("/feedback status %d", resp.StatusCode)
		}
	})

	run(func(base string, corpus *serve.Corpus) {
		if info := corpus.Recovery(); !info.Durable || info.Pages != 11 {
			t.Fatalf("second boot recovery = %+v, want 11 recovered pages", info)
		}
		if gem, _ := corpus.Page(99); !gem.Aware || gem.Popularity != 3 {
			t.Fatalf("gem state lost across daemon restart: %+v", gem)
		}
		resp, err := http.Get(base + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var hz serve.HealthzResponse
		if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if !hz.Ready || !hz.Durable || hz.FsyncMode != "batch" || len(hz.Shards) != 2 {
			t.Fatalf("durable healthz = %+v", hz)
		}
	})
}

package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestFrontDoorRoutesBinaryBatch posts a binary /v1/feedback/batch that
// spans every leader through one node's front door: it must be split
// and forwarded like a JSON /v1/feedback post (it used to fall through
// to the local node and 503 not_leader for every shard led elsewhere),
// be acknowledged in the binary framing, and land on every replica.
func TestFrontDoorRoutesBinaryBatch(t *testing.T) {
	c, err := New(fastOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const pages = 24
	all := make([]int, pages)
	leaders := map[int]bool{}
	for id := range all {
		if err := c.Add(id, fmt.Sprintf("page %d", id), float64(id)); err != nil {
			t.Fatal(err)
		}
		all[id] = id
		leaders[c.LeaderIndex(serve.ShardIndex(id, c.opts.Shards))] = true
	}
	if len(leaders) != c.Len() {
		t.Fatalf("the batch spans %d leaders, want all %d", len(leaders), c.Len())
	}
	post := func(body []byte, contentType string) (int, string, []byte) {
		t.Helper()
		resp, err := http.Post(c.FrontDoorURL(0)+"/v1/feedback/batch", contentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		reply, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header.Get("Content-Type"), reply
	}

	events := feedbackEvents(all, 1)
	status, ct, reply := post(serve.AppendFeedbackBatchRequest(nil, events), serve.BatchContentType)
	if status != http.StatusAccepted || ct != serve.BatchContentType {
		t.Fatalf("binary batch: status %d, content type %q: %s", status, ct, reply)
	}
	if n, err := serve.DecodeFeedbackBatchResponse(reply); err != nil || n != pages {
		t.Fatalf("binary ack: accepted %d, %v; want %d", n, err, pages)
	}
	// A batch on fewer leaders takes the same road.
	status, ct, reply = post(serve.AppendFeedbackBatchRequest(nil, feedbackEvents([]int{1, 2}, 1)), serve.BatchContentType)
	if n, err := serve.DecodeFeedbackBatchResponse(reply); status != http.StatusAccepted || ct != serve.BatchContentType || err != nil || n != 2 {
		t.Fatalf("two-event batch: status %d (%s), accepted %d, %v: %s", status, ct, n, err, reply)
	}
	// Its own validation, worded by the endpoint it arrived on: the
	// binary framing only, non-empty, and errors naming the event.
	if status, _, reply = post([]byte(`{"events":[{"page":1,"slot":1}]}`), "application/json"); status != http.StatusBadRequest || !bytes.Contains(reply, []byte(serve.BatchContentType)) {
		t.Fatalf("JSON batch: status %d: %s", status, reply)
	}
	if status, _, reply = post(serve.AppendFeedbackBatchRequest(nil, nil), serve.BatchContentType); status != http.StatusBadRequest || !bytes.Contains(reply, []byte("empty batch")) {
		t.Fatalf("empty binary batch: status %d: %s", status, reply)
	}
	bad := feedbackEvents(all, 1)
	bad[17].Slot = 0
	if status, _, reply = post(serve.AppendFeedbackBatchRequest(nil, bad), serve.BatchContentType); status != http.StatusBadRequest || !bytes.Contains(reply, []byte("event 17: slot must be")) {
		t.Fatalf("invalid event: status %d: %s", status, reply)
	}

	if err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// A follower's committed position can lead its applied state by a
	// moment, so poll.
	waitUntil(t, 5*time.Second, func() error {
		for id := 0; id < pages; id++ {
			want := int64(1)
			if id == 1 || id == 2 {
				want = 2
			}
			for i := 0; i < c.Len(); i++ {
				if got, ok := c.Node(i).Corpus().Page(id); !ok || got.Clicks != want || got.Impressions != want {
					return fmt.Errorf("node %s page %d: %+v (ok=%v), want %d clicks and impressions", c.Node(i).ID(), id, got, ok, want)
				}
			}
		}
		return nil
	})
}

// TestFrontDoorKeepsOversizedLeaderPartAtomic: a JSON /v1/feedback post
// may put more events on one leader than /v1/feedback/batch takes. The
// front door must still hand that leader its part as ONE post — one
// admission, one quorum wait, so a refusal leaves nothing of it
// committed — not as a run of capped batches.
func TestFrontDoorKeepsOversizedLeaderPartAtomic(t *testing.T) {
	c, err := New(fastOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Two pages of one shard, posted through a front door that does not
	// lead it, so the part crosses a socket.
	shards := c.opts.Shards
	pages := []int{1, 1 + shards}
	for _, id := range pages {
		if err := c.Add(id, fmt.Sprintf("page %d", id), 1); err != nil {
			t.Fatal(err)
		}
	}
	leader := c.LeaderIndex(serve.ShardIndex(pages[0], shards))
	door := (leader + 1) % c.Len()
	feedbackPosts := func() uint64 {
		t.Helper()
		resp, err := http.Get(c.APIURL(leader) + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st struct {
			FeedbackRequests uint64 `json:"feedback_requests"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st.FeedbackRequests
	}
	const n = serve.MaxFeedbackBatchEvents + 2
	events := make([]serve.Event, n)
	for i := range events {
		events[i] = serve.Event{Page: pages[i%2], Slot: 1, Impressions: 1}
	}
	before := feedbackPosts()
	if st := postFeedback(t, c.FrontDoorURL(door), events); st != http.StatusAccepted {
		t.Fatalf("oversized post: status %d", st)
	}
	if got := feedbackPosts() - before; got != 1 {
		t.Errorf("the leader took its %d events as %d posts, want 1", n, got)
	}
	if err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, func() error {
		for i := 0; i < c.Len(); i++ {
			for _, id := range pages {
				if got, ok := c.Node(i).Corpus().Page(id); !ok || got.Impressions != n/2 {
					return fmt.Errorf("node %s page %d: %+v (ok=%v), want %d impressions", c.Node(i).ID(), id, got, ok, n/2)
				}
			}
		}
		return nil
	})
}

// TestFrontDoorRelaysLowestLeaderVerdict: sub-batches go out together,
// so when several leaders fail theirs, which failure is answered must
// not depend on which came back first — it is the lowest leader ID's.
func TestFrontDoorRelaysLowestLeaderVerdict(t *testing.T) {
	for _, tc := range []struct {
		name             string
		refuses, offline string // node IDs; n0 keeps the front door
		wantCode         string
	}{
		{"lower refuses, higher unreachable", "n1", "n2", serve.ErrCodeNotLeader},
		{"lower unreachable, higher refuses", "n2", "n1", "leader_unreachable"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(fastOpts(t))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			var pages []int
			led := map[string]int{}
			for si := 0; si < c.opts.Shards; si++ {
				pages = append(pages, si)
				if err := c.Add(si, fmt.Sprintf("page %d", si), 1); err != nil {
					t.Fatal(err)
				}
				leader := c.Node(c.LeaderIndex(si))
				led[leader.ID()]++
				if leader.ID() == tc.refuses {
					leader.Corpus().SetShardWritable(si, false)
				}
			}
			if len(led) != c.Len() {
				t.Fatalf("shard leaders %v do not cover every node", led)
			}
			c.apiSrvs[c.Index(tc.offline)].Close()
			body, err := json.Marshal(serve.FeedbackRequest{Events: feedbackEvents(pages, 1)})
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 8; round++ {
				resp, err := http.Post(c.FrontDoorURL(0)+"/v1/feedback", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				var env serve.ErrorEnvelope
				err = json.NewDecoder(resp.Body).Decode(&env)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusServiceUnavailable || env.Error.Code != tc.wantCode {
					t.Fatalf("round %d: status %d, %+v (%v); want 503 %s", round, resp.StatusCode, env.Error, err, tc.wantCode)
				}
			}
		})
	}
}

// TestOneShardAckNeverWaitsForHeartbeat pins the replication wake-ups:
// with nothing else going on, a one-shard post is acknowledged as soon
// as a follower has it, in well under a millisecond of waiting. A missed
// wake-up anywhere on the path — the shipper arming its waits after
// sampling the log, the follower dropping the ack a durable advance
// asked for — parks the post until the next heartbeat instead, so over
// many posts the slowest one gives it away. The heartbeat is set far
// above scheduling noise to keep the two apart.
func TestOneShardAckNeverWaitsForHeartbeat(t *testing.T) {
	for _, mode := range []string{"none", "batch"} {
		t.Run(mode, func(t *testing.T) {
			opts := fastOpts(t)
			opts.Logf = nil
			opts.HeartbeatEvery = 400 * time.Millisecond
			opts.ElectionTimeout = 2 * time.Second
			opts.Corpus = func(_ int, cfg *serve.Config) { cfg.Durability.FsyncMode = mode }
			c, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.Add(0, "page 0", 1); err != nil {
				t.Fatal(err)
			}
			leader := c.APIURL(c.LeaderIndex(serve.ShardIndex(0, c.opts.Shards)))
			events := feedbackEvents([]int{0}, 1)
			posts := 200
			if testing.Short() {
				posts = 60
			}
			var acks []time.Duration
			for i := 0; i < posts; i++ {
				t0 := time.Now()
				if st := postFeedback(t, leader, events); st != http.StatusAccepted {
					t.Fatalf("post %d: status %d", i, st)
				}
				acks = append(acks, time.Since(t0))
			}
			sort.Slice(acks, func(i, j int) bool { return acks[i] < acks[j] })
			t.Logf("fsync=%s: ack min %v, p50 %v, max %v", mode, acks[0], acks[len(acks)/2], acks[len(acks)-1])
			if slowest := acks[len(acks)-1]; slowest >= opts.HeartbeatEvery/2 {
				t.Errorf("fsync=%s: slowest of %d acks took %v, at least half a heartbeat (%v): a post waited for one", mode, posts, slowest, opts.HeartbeatEvery)
			}
		})
	}
}

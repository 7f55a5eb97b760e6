package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

// fastOpts builds cluster options tuned for test time: tight
// heartbeats, quick elections.
func fastOpts(t *testing.T) Options {
	t.Helper()
	return Options{
		Nodes:           3,
		Shards:          4,
		DataDir:         t.TempDir(),
		Seed:            7,
		HeartbeatEvery:  20 * time.Millisecond,
		ElectionTimeout: 250 * time.Millisecond,
		MaxHeartbeatAge: 2 * time.Second,
		Logf:            t.Logf,
	}
}

// TestWaitConvergedCoversQueuedAdds: Cluster.Add only enqueues, so
// WaitConverged must sync the leaders before comparing positions —
// otherwise it can pass with every node still at LSN 0 — and once it
// returns every node holds every page, in its shard state and in its
// index (a follower indexes a replicated add after committing it).
func TestWaitConvergedCoversQueuedAdds(t *testing.T) {
	c, err := New(fastOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const pages = 40
	for id := 0; id < pages; id++ {
		if err := c.Add(id, fmt.Sprintf("page %d", id), float64(id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.Len(); i++ {
		if got := c.Node(i).Corpus().Stats().Pages; got != pages {
			t.Errorf("node %d holds %d of %d pages after WaitConverged", i, got, pages)
		}
		for id := 0; id < pages; id++ {
			if _, ok := c.Node(i).Corpus().Page(id); !ok {
				t.Errorf("node %d has not indexed page %d after WaitConverged", i, id)
			}
		}
	}
}

func postFeedback(t *testing.T, url string, events []serve.Event) int {
	t.Helper()
	body, _ := json.Marshal(serve.FeedbackRequest{Events: events})
	resp, err := http.Post(url+"/v1/feedback", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0 // connection died (killed node)
	}
	defer resp.Body.Close()
	return resp.StatusCode
}

func feedbackEvents(pages []int, clicks int) []serve.Event {
	evs := make([]serve.Event, 0, len(pages))
	for _, p := range pages {
		evs = append(evs, serve.Event{Page: p, Slot: 1, Impressions: 1, Clicks: clicks})
	}
	return evs
}

func TestProtoRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	msgs := [][]byte{
		handshake{node: "n1", shard: 3, epoch: 9, startLSN: 1234, minor: protoMinor}.encode(),
		reply{status: replySnapshot, epoch: 9, detail: "x", minor: protoMinor}.encode(),
		snapMsg{lsn: 77, data: []byte("snapbytes")}.encode(),
		appendFrameMsg(nil, 9, 1234, []byte("payload")),
		heartbeat{epoch: 9, commitLSN: 1300, nanos: 42}.encode(),
		ack{lsn: 1299}.encode(),
	}
	for _, m := range msgs {
		if err := writeMsg(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	br := bufio.NewReader(&buf)
	read := func() []byte {
		t.Helper()
		b, err := readMsg(br, maxSnapMsg)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	hs, err := decodeHandshake(read())
	if err != nil || hs.node != "n1" || hs.shard != 3 || hs.epoch != 9 || hs.startLSN != 1234 || hs.minor != protoMinor {
		t.Fatalf("handshake round trip: %+v err=%v", hs, err)
	}
	rp, err := decodeReply(read())
	if err != nil || rp.status != replySnapshot || rp.epoch != 9 || rp.detail != "x" || rp.minor != protoMinor {
		t.Fatalf("reply round trip: %+v err=%v", rp, err)
	}
	sm, err := decodeSnapMsg(read())
	if err != nil || sm.lsn != 77 || string(sm.data) != "snapbytes" {
		t.Fatalf("snapshot round trip: %+v err=%v", sm, err)
	}
	fr, err := decodeFrameMsg(read())
	if err != nil || fr.epoch != 9 || fr.lsn != 1234 || string(fr.payload) != "payload" {
		t.Fatalf("frame round trip: %+v err=%v", fr, err)
	}
	hb, err := decodeHeartbeat(read())
	if err != nil || hb.epoch != 9 || hb.commitLSN != 1300 || hb.nanos != 42 {
		t.Fatalf("heartbeat round trip: %+v err=%v", hb, err)
	}
	a, err := decodeAck(read())
	if err != nil || a.lsn != 1299 {
		t.Fatalf("ack round trip: %+v err=%v", a, err)
	}

	// Strictness: trailing bytes are refused.
	if _, err := decodeAck(append(ack{lsn: 1}.encode(), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	if _, err := decodeHandshake([]byte("XXXX")); err == nil {
		t.Fatal("bad magic accepted")
	}
}

// TestProtoMinorRequired pins the session-open bytes — the protocol
// minor is the trailing field of both the handshake and its reply, with
// no optional form — and that leaving it off, or speaking another
// revision, is refused with an error that says so.
func TestProtoMinorRequired(t *testing.T) {
	hs := handshake{node: "n1", shard: 3, epoch: 9, startLSN: 1234, minor: protoMinor}.encode()
	if want := "HSDRP\x01\x02n1\x03\x09\xd2\x09\x01"; string(hs) != want {
		t.Fatalf("handshake bytes %q, want %q", hs, want)
	}
	rp := reply{status: replyFrames, epoch: 9, minor: protoMinor}.encode()
	if want := "R\x00\x09\x00\x01"; string(rp) != want {
		t.Fatalf("reply bytes %q, want %q", rp, want)
	}
	if _, err := decodeHandshake(hs[:len(hs)-1]); err == nil || !strings.Contains(err.Error(), "no protocol minor") {
		t.Fatalf("handshake without a minor: err=%v, want one naming the missing minor", err)
	}
	if _, err := decodeHandshake(append(hs[:len(hs)-1:len(hs)-1], 0)); err == nil || !strings.Contains(err.Error(), "protocol minor 0") {
		t.Fatalf("minor-0 handshake: err=%v, want one naming the revision", err)
	}
	if _, err := decodeReply(rp[:len(rp)-1]); err == nil {
		t.Fatal("reply without a minor accepted")
	}
}

func TestRingDeterministicAndCovers(t *testing.T) {
	a := NewRing([]string{"n2", "n0", "n1"})
	b := NewRing([]string{"n0", "n1", "n2"})
	owners := map[string]bool{}
	for si := 0; si < 64; si++ {
		la, lb := a.ShardLeader(si), b.ShardLeader(si)
		if la != lb {
			t.Fatalf("ring order-dependent: shard %d %s vs %s", si, la, lb)
		}
		owners[la] = true
	}
	if len(owners) != 3 {
		t.Fatalf("64 shards landed on %d of 3 nodes", len(owners))
	}
}

func TestParsePeers(t *testing.T) {
	peers, err := ParsePeers("n0=http://a:1@a:2, n1=http://b:1@b:2")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 2 || peers[1].ID != "n1" || peers[1].APIURL != "http://b:1" || peers[1].ReplAddr != "b:2" {
		t.Fatalf("parsed %+v", peers)
	}
	for _, bad := range []string{"", "n0", "n0=http://a:1", "=x@y"} {
		if _, err := ParsePeers(bad); err == nil {
			t.Fatalf("ParsePeers(%q) accepted", bad)
		}
	}
}

// TestClusterReplicatesFeedback is the happy path: writes through one
// front door land on the right shard leaders and every follower
// converges to identical per-page counters.
func TestClusterReplicatesFeedback(t *testing.T) {
	c, err := New(fastOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const pages = 20
	for id := 0; id < pages; id++ {
		if err := c.Add(id, fmt.Sprintf("page %d", id), float64(id)); err != nil {
			t.Fatal(err)
		}
	}
	all := make([]int, pages)
	for i := range all {
		all[i] = i
	}
	for round := 0; round < 5; round++ {
		if st := postFeedback(t, c.FrontDoorURL(0), feedbackEvents(all, 1)); st != http.StatusAccepted {
			t.Fatalf("round %d: feedback status %d", round, st)
		}
	}
	if err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < pages; id++ {
		shard := serve.ShardIndex(id, c.opts.Shards)
		li := c.LeaderIndex(shard)
		want, ok := c.Node(li).Corpus().Page(id)
		if !ok || want.Clicks != 5 || want.Impressions != 5 {
			t.Fatalf("leader of page %d: %+v ok=%v", id, want, ok)
		}
		for i := 0; i < c.Len(); i++ {
			if i == li {
				continue
			}
			got, ok := c.Node(i).Corpus().Page(id)
			if !ok || got.Clicks != want.Clicks || got.Impressions != want.Impressions || got.Birth != want.Birth {
				t.Fatalf("follower %s page %d: got %+v want %+v (ok=%v)", c.Node(i).ID(), id, got, want, ok)
			}
		}
	}

	// Writes against a follower's raw API are refused with not_leader.
	for si := 0; si < c.opts.Shards; si++ {
		li := c.LeaderIndex(si)
		for i := 0; i < c.Len(); i++ {
			if i == li {
				continue
			}
			err := c.Node(i).Corpus().Add(1000+si, "x", 1)
			if !errors.Is(err, serve.ErrNotLeader) {
				t.Fatalf("follower %s accepted write for shard %d: %v", c.Node(i).ID(), si, err)
			}
			break
		}
	}
}

// TestClusterFailover kills a leader mid-stream and verifies: a
// follower is promoted with a bumped fencing epoch, pre-kill
// acknowledged feedback survives on the promoted node, and writes flow
// again through a surviving front door.
func TestClusterFailover(t *testing.T) {
	c, err := New(fastOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const pages = 16
	pageIDs := make([]int, pages)
	for id := 0; id < pages; id++ {
		pageIDs[id] = id
		if err := c.Add(id, fmt.Sprintf("page %d", id), 1); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 3; round++ {
		if st := postFeedback(t, c.FrontDoorURL(0), feedbackEvents(pageIDs, 1)); st != http.StatusAccepted {
			t.Fatalf("pre-kill feedback status %d", st)
		}
	}
	if err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	victim := c.LeaderIndex(0)
	victimID := c.Node(victim).ID()
	victimShards := []int{}
	for si := 0; si < c.opts.Shards; si++ {
		if c.LeaderIndex(si) == victim {
			victimShards = append(victimShards, si)
		}
	}
	epochBefore := c.Registry.Epoch(0)
	c.KillNode(victim)
	for _, si := range victimShards {
		if err := c.WaitForLeaderChange(si, victimID, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if e := c.Registry.Epoch(0); e <= epochBefore {
		t.Fatalf("epoch did not advance on failover: %d -> %d", epochBefore, e)
	}

	// Acked feedback must survive on the promoted leaders: every page
	// still reports the pre-kill totals.
	for _, id := range pageIDs {
		li := c.LeaderIndex(serve.ShardIndex(id, c.opts.Shards))
		got, ok := c.Node(li).Corpus().Page(id)
		if !ok || got.Clicks < 3 {
			t.Fatalf("page %d on promoted leader %s: %+v ok=%v (want >=3 clicks)", id, c.Node(li).ID(), got, ok)
		}
	}

	// The cluster accepts writes again through a surviving door.
	door := c.FirstAliveFrontDoor()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := postFeedback(t, door, feedbackEvents(pageIDs, 1)); st == http.StatusAccepted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("writes never recovered after failover")
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestFencingHandshake probes the wire-level fencing rules directly: a
// handshake claiming a higher epoch is refused with replyEpoch, and a
// handshake to a non-leader is refused with replyNotLeader.
func TestFencingHandshake(t *testing.T) {
	c, err := New(fastOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	probeRaw := func(addr string, hs []byte) reply {
		t.Helper()
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(2 * time.Second))
		if err := writeMsg(conn, hs); err != nil {
			t.Fatal(err)
		}
		body, err := readMsg(bufio.NewReader(conn), maxCtrlMsg)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := decodeReply(body)
		if err != nil {
			t.Fatal(err)
		}
		return rp
	}
	probe := func(addr string, hs handshake) reply {
		t.Helper()
		hs.minor = protoMinor
		return probeRaw(addr, hs.encode())
	}

	// A follower node does not serve the shard.
	li := c.LeaderIndex(0)
	follower := (li + 1) % c.Len()
	if c.LeaderIndex(0) == follower {
		follower = (li + 2) % c.Len()
	}
	rp := probe(c.Node(follower).ReplAddr(), handshake{node: "probe", shard: 0, epoch: 1, startLSN: 1})
	if rp.status != replyNotLeader {
		t.Fatalf("follower handshake: status %d, want replyNotLeader", rp.status)
	}

	// A handshake without the protocol minor is told why it was refused.
	old := handshake{node: "probe", shard: 0, epoch: 1, startLSN: 1, minor: protoMinor}.encode()
	rp = probeRaw(c.Node(li).ReplAddr(), old[:len(old)-1])
	if rp.status != replyError || !strings.Contains(rp.detail, "no protocol minor") {
		t.Fatalf("minor-less handshake: status %d detail %q, want replyError naming the missing minor", rp.status, rp.detail)
	}

	// A higher-epoch handshake fences the stale leader.
	epoch := c.Registry.Epoch(0)
	rp = probe(c.Node(li).ReplAddr(), handshake{node: "probe", shard: 0, epoch: epoch + 5, startLSN: 1})
	if rp.status != replyEpoch {
		t.Fatalf("stale-leader handshake: status %d, want replyEpoch", rp.status)
	}
	// The probed node demotes itself on the spot; the registry (which
	// still names it leader) lets it re-assume leadership — the
	// cluster self-heals rather than wedging the shard.
	deadline := time.Now().Add(3 * time.Second)
	for {
		id := 2000 // any page in shard 0 given ShardIndex = id % shards
		for serve.ShardIndex(id, c.opts.Shards) != 0 {
			id++
		}
		if err := c.Node(li).Corpus().Add(id, "heal", 1); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("fenced leader never re-assumed registry leadership")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestZombieLeaderFencedAndRejoins simulates a partitioned leader: the
// registry declares it dead, a follower is promoted, and the old
// leader — still running — must end up fenced (writes refused) and
// following the new regime.
func TestZombieLeaderFencedAndRejoins(t *testing.T) {
	c, err := New(fastOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const pages = 8
	pageIDs := make([]int, pages)
	for id := 0; id < pages; id++ {
		pageIDs[id] = id
		if err := c.Add(id, fmt.Sprintf("page %d", id), 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Partition the leader (heartbeats stop, so followers notice) and
	// have the failure detector declare it dead; its process keeps
	// running — the zombie case.
	old := c.LeaderIndex(0)
	oldID := c.Node(old).ID()
	c.Registry.MarkDead(oldID)
	c.Node(old).SetPartitioned(true)
	if err := c.WaitForLeaderChange(0, oldID, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// Heal the partition: the zombie's next lease check sees the higher
	// epoch and self-demotes, after which it must refuse shard-0 writes.
	c.Node(old).SetPartitioned(false)
	shard0Page := 0
	for serve.ShardIndex(shard0Page, c.opts.Shards) != 0 {
		shard0Page++
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		err := c.Node(old).Corpus().Add(3000+shard0Page, "zombie", 1)
		if errors.Is(err, serve.ErrNotLeader) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("zombie leader still accepts shard-0 writes: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// New feedback lands on the new leader and the zombie follows it:
	// everyone converges, including the zombie.
	newLeader := c.LeaderIndex(0)
	if newLeader == old {
		t.Fatal("leadership did not move")
	}
	if st := postFeedback(t, c.APIURL(newLeader), feedbackEvents([]int{shard0Page}, 2)); st != http.StatusAccepted {
		t.Fatalf("post-failover feedback status %d", st)
	}
	waitUntil(t, 5*time.Second, func() error {
		want, _ := c.Node(newLeader).Corpus().Page(shard0Page)
		got, ok := c.Node(old).Corpus().Page(shard0Page)
		if !ok || got.Clicks != want.Clicks {
			return fmt.Errorf("zombie at %d clicks, new leader at %d", got.Clicks, want.Clicks)
		}
		return nil
	})
}

// TestSnapshotCatchup wipes a follower and brings it back after the
// leader's WAL tail has been truncated: the only way home is the
// snapshot handshake, and the follower must still converge to
// identical state.
func TestSnapshotCatchup(t *testing.T) {
	opts := fastOpts(t)
	opts.Shards = 1
	opts.Corpus = func(i int, cfg *serve.Config) {
		cfg.Durability.WALSegmentBytes = 512
		cfg.Durability.SnapshotInterval = 20 * time.Millisecond
	}
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const pages = 10
	pageIDs := make([]int, pages)
	for id := 0; id < pages; id++ {
		pageIDs[id] = id
		if err := c.Add(id, fmt.Sprintf("page %d", id), 1); err != nil {
			t.Fatal(err)
		}
	}
	leader := c.LeaderIndex(0)
	lc := c.Node(leader).Corpus()

	// Feed until the leader has truncated its WAL past LSN 1 (tiny
	// segments + fast snapshots + follower acks advancing the floor).
	deadline := time.Now().Add(10 * time.Second)
	rounds := 0
	for lc.WALFirstLSN(0) == 1 {
		if st := postFeedback(t, c.FrontDoorURL(leader), feedbackEvents(pageIDs, 1)); st != http.StatusAccepted {
			t.Fatalf("feedback status %d", st)
		}
		rounds++
		if time.Now().After(deadline) {
			t.Fatalf("leader never truncated (first LSN still 1 after %d rounds)", rounds)
		}
		time.Sleep(5 * time.Millisecond)
	}

	victim := (leader + 1) % c.Len()
	c.KillNode(victim)
	// More traffic while the follower is down.
	for i := 0; i < 3; i++ {
		if st := postFeedback(t, c.FrontDoorURL(leader), feedbackEvents(pageIDs, 1)); st != http.StatusAccepted {
			t.Fatalf("feedback with follower down: status %d", st)
		}
	}
	if err := c.RestartNode(victim, true); err != nil {
		t.Fatal(err)
	}
	if first := lc.WALFirstLSN(0); first == 1 {
		t.Fatal("test premise broken: leader WAL no longer truncated")
	}
	if err := c.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, id := range pageIDs {
		want, _ := lc.Page(id)
		got, ok := c.Node(victim).Corpus().Page(id)
		if !ok || got.Clicks != want.Clicks || got.Impressions != want.Impressions || got.Birth != want.Birth {
			t.Fatalf("page %d after snapshot catch-up: got %+v want %+v ok=%v", id, got, want, ok)
		}
	}
}

// TestHealthzReportsReplication spot-checks the /v1/healthz surface:
// roles, epochs and follower lag are populated.
func TestHealthzReportsReplication(t *testing.T) {
	c, err := New(fastOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Add(1, "page", 1); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Convergence is about LSNs; follower *registration* can trail it by
	// a beat (a session attaches, then acks). Wait until every leader
	// shard has heard from both followers before asserting the payload.
	waitUntil(t, 5*time.Second, func() error {
		for i := 0; i < c.Len(); i++ {
			for _, row := range c.Node(i).replicationHealth().Shards {
				if row.Role == "leader" && len(row.Followers) != c.Len()-1 {
					return fmt.Errorf("node %d shard %d: %d followers attached", i, row.Shard, len(row.Followers))
				}
			}
		}
		return nil
	})
	for i := 0; i < c.Len(); i++ {
		resp, err := http.Get(c.APIURL(i) + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var payload struct {
			Replication *serve.ReplicationHealth `json:"replication"`
		}
		err = json.NewDecoder(resp.Body).Decode(&payload)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		r := payload.Replication
		if r == nil {
			t.Fatalf("node %d: no replication block in healthz", i)
		}
		if r.Node != c.Node(i).ID() || len(r.Shards) != c.opts.Shards {
			t.Fatalf("node %d: replication block %+v", i, r)
		}
		for _, row := range r.Shards {
			if row.Epoch == 0 {
				t.Fatalf("node %d shard %d: zero epoch", i, row.Shard)
			}
			leads := c.LeaderIndex(row.Shard) == i
			if leads != (row.Role == "leader") {
				t.Fatalf("node %d shard %d: role %q, registry says leader=%v", i, row.Shard, row.Role, leads)
			}
			if leads && len(row.Followers) != c.Len()-1 {
				t.Fatalf("node %d shard %d: %d followers registered, want %d", i, row.Shard, len(row.Followers), c.Len()-1)
			}
		}
	}
}

func waitUntil(t *testing.T, timeout time.Duration, f func() error) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		err := f()
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

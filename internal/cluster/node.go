package cluster

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/store"
)

// Per-shard replication roles.
const (
	roleFollower = int32(iota)
	roleLeader
	roleCandidate
)

func roleName(r int32) string {
	switch r {
	case roleLeader:
		return "leader"
	case roleCandidate:
		return "candidate"
	default:
		return "follower"
	}
}

// ErrCodeStaleReplica is the error code a follower returns on rank
// reads when its replica of some shard is too far behind the leader
// (or the leader has gone quiet) to honor the staleness bound.
const ErrCodeStaleReplica = "stale_replica"

// ErrCodeReplLag is the error code a leader returns when a feedback
// batch committed locally but a follower quorum did not ack it within
// replAckTimeout: the write was NOT acknowledged, retry it.
const ErrCodeReplLag = serve.ErrCodeReplLag

// NodeConfig sizes one cluster node. Zero values select defaults.
type NodeConfig struct {
	// ID is the node's cluster-wide name. Required.
	ID string
	// Corpus configures the node's serve.Corpus. Durability.DataDir is
	// required: replication ships the WAL, so there must be one.
	Corpus serve.Config
	// ReplListen is the TCP listen address for the replication
	// protocol (default "127.0.0.1:0").
	ReplListen string
	// MaxFollowerLag is the stale-read bound in WAL frames: a follower
	// shard trailing the leader's committed position by more than this
	// fails rank reads with 503 stale_replica (default 1024).
	MaxFollowerLag uint64
	// MaxHeartbeatAge is the stale-read bound in time: a follower
	// shard that has not heard its leader for longer than this fails
	// rank reads (default 3s). Keep it above ElectionTimeout or reads
	// brown out during every failover.
	MaxHeartbeatAge time.Duration
	// HeartbeatEvery is the leader's idle heartbeat cadence per
	// follower session (default 100ms).
	HeartbeatEvery time.Duration
	// ElectionTimeout is how long a follower waits without hearing a
	// leader before asking the coordinator to promote it (default 1s).
	ElectionTimeout time.Duration
	// Logf, when non-nil, receives replication lifecycle events
	// (sessions, promotions, fencing refusals).
	Logf func(format string, args ...any)
}

func (cfg *NodeConfig) fillDefaults() {
	if cfg.ReplListen == "" {
		cfg.ReplListen = "127.0.0.1:0"
	}
	if cfg.MaxFollowerLag == 0 {
		cfg.MaxFollowerLag = 1024
	}
	if cfg.MaxHeartbeatAge == 0 {
		cfg.MaxHeartbeatAge = 3 * time.Second
	}
	if cfg.HeartbeatEvery == 0 {
		cfg.HeartbeatEvery = 100 * time.Millisecond
	}
	if cfg.ElectionTimeout == 0 {
		cfg.ElectionTimeout = time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
}

// shardRepl is one shard's replication state on one node.
type shardRepl struct {
	role  atomic.Int32
	epoch atomic.Uint64
	// leaderCommit is the leader's committed LSN as of the last frame
	// or heartbeat (maintained while following).
	leaderCommit atomic.Uint64
	// lastHB is when the leader was last heard from (unix nanos);
	// election fires when it ages past ElectionTimeout.
	lastHB atomic.Int64
	// avgFrameBytes is a running estimate of the mean WAL frame size
	// on this shard, maintained from shipped/applied frames; lag in
	// bytes is reported as frames×avg (an estimate — the WAL keeps no
	// per-LSN byte index).
	avgFrameBytes atomic.Int64
	// notify wakes shipper sessions after each group commit; ackNotify
	// wakes writers blocked on quorum replication after each follower
	// ack.
	notify    *commitNotify
	ackNotify *commitNotify
	// followers maps follower node ID → track, leader side. Tracks
	// persist across disconnects: a registered follower that goes away
	// keeps holding WAL truncation at its last acked position, so it
	// can resume from frames when it returns.
	followers sync.Map // string → *followerTrack
}

type followerTrack struct {
	acked atomic.Uint64
}

// commitNotify is a broadcast edge: Signal wakes every goroutine
// currently parked on Wait's channel.
type commitNotify struct {
	mu sync.Mutex
	ch chan struct{}
}

func newCommitNotify() *commitNotify {
	return &commitNotify{ch: make(chan struct{})}
}

func (cn *commitNotify) Signal() {
	cn.mu.Lock()
	close(cn.ch)
	cn.ch = make(chan struct{})
	cn.mu.Unlock()
}

func (cn *commitNotify) Wait() <-chan struct{} {
	cn.mu.Lock()
	ch := cn.ch
	cn.mu.Unlock()
	return ch
}

// Node is one member of a replicated cluster: a serve.Corpus plus the
// replication machinery around it. For every shard the node is either
// the leader (accepts writes, ships committed WAL frames to followers)
// or a follower (applies shipped frames through the same code path as
// live serving and refuses writes with not_leader).
type Node struct {
	cfg    NodeConfig
	coord  Coordinator
	corpus *serve.Corpus
	api    *serve.Server
	guard  http.Handler
	// peers is the HTTP client the node's front door reaches the other
	// nodes' APIs with; its idle connections close on teardown.
	peers *http.Client

	ln net.Listener
	// replAddr is ln's address, published for ReplAddr: peers already
	// running resolve it through the coordinator while Start is still
	// opening the listener.
	replAddr    atomic.Pointer[string]
	shards      []*shardRepl
	stop        chan struct{}
	stopped     atomic.Bool
	partitioned atomic.Bool
	wg          sync.WaitGroup

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
}

// NewNode builds the node and recovers its corpus from
// Corpus.Durability.DataDir. Call Start to open the replication
// listener and assume roles.
func NewNode(cfg NodeConfig, coord Coordinator) (*Node, error) {
	cfg.fillDefaults()
	if cfg.ID == "" {
		return nil, fmt.Errorf("cluster: NodeConfig.ID required")
	}
	if cfg.Corpus.Durability.DataDir == "" {
		return nil, fmt.Errorf("cluster: replication requires Durability.DataDir")
	}
	if cfg.Corpus.Shards <= 0 {
		cfg.Corpus.Shards = 4
	}
	n := &Node{
		cfg:    cfg,
		coord:  coord,
		stop:   make(chan struct{}),
		conns:  make(map[net.Conn]struct{}),
		shards: make([]*shardRepl, cfg.Corpus.Shards),
	}
	for i := range n.shards {
		n.shards[i] = &shardRepl{notify: newCommitNotify(), ackNotify: newCommitNotify()}
	}
	// Wake the shard's shippers after each durable group commit.
	cfg.Corpus.OnCommit = func(shard int) { n.shards[shard].notify.Signal() }
	corpus, err := serve.NewCorpus(cfg.Corpus)
	if err != nil {
		return nil, err
	}
	n.corpus = corpus
	n.api = serve.NewServer(corpus)
	n.api.HoldFeedbackAcks(n.holdForQuorum)
	n.guard = n.guardHandler(n.api)
	n.peers = newPeerClient()
	corpus.SetReplicationHealth(n.replicationHealth)
	return n, nil
}

// ID returns the node's cluster name.
func (n *Node) ID() string { return n.cfg.ID }

// Corpus exposes the node's corpus (tests and benchmarks).
func (n *Node) Corpus() *serve.Corpus { return n.corpus }

// Handler is the node's HTTP API: the full /v1 surface with the
// stale-read guard in front of the rank endpoints.
func (n *Node) Handler() http.Handler { return n.guard }

// ReplAddr returns the replication listener's address (valid after
// Start).
func (n *Node) ReplAddr() string {
	if addr := n.replAddr.Load(); addr != nil {
		return *addr
	}
	return ""
}

// Alive reports whether the node is still running (false after Kill or
// Close). The registry consults it when arbitrating promotions.
func (n *Node) Alive() bool { return !n.stopped.Load() }

func (n *Node) running() bool { return !n.stopped.Load() }

// Start opens the replication listener, assumes the coordinator's
// current role for every shard, and launches the replication loops.
func (n *Node) Start() error {
	ln, err := net.Listen("tcp", n.cfg.ReplListen)
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	n.ln = ln
	addr := ln.Addr().String()
	n.replAddr.Store(&addr)
	now := time.Now().UnixNano()
	for si, sr := range n.shards {
		leader, epoch := n.coord.Leader(si)
		sr.epoch.Store(epoch)
		sr.lastHB.Store(now)
		if leader == n.cfg.ID {
			sr.role.Store(roleLeader)
		} else {
			sr.role.Store(roleFollower)
			n.corpus.SetShardWritable(si, false)
		}
	}
	n.wg.Add(1)
	go n.acceptLoop()
	for si := range n.shards {
		n.wg.Add(1)
		go n.shardLoop(si)
	}
	n.wg.Add(1)
	go n.electionLoop()
	return nil
}

// Close stops replication and closes the corpus cleanly (final
// snapshot). Safe to call once.
func (n *Node) Close() {
	if n.stopped.Swap(true) {
		return
	}
	n.teardown()
	n.corpus.Close()
}

// Kill simulates sudden death: replication stops, in-flight requests
// are refused, no final snapshot is written. The next NewNode over the
// same data directory recovers from WAL + last snapshot, exactly like
// a crashed process. Replication goroutines are stopped BEFORE the
// corpus dies — Corpus.Kill must not race an in-flight replicated
// apply, and a real SIGKILL takes the replication threads and the WAL
// down in the same instant anyway. An apply that was already in flight
// completes durably first, which only ever makes the survivors MORE
// caught up.
func (n *Node) Kill() {
	if n.stopped.Swap(true) {
		return
	}
	n.teardown()
	n.corpus.Kill()
}

func (n *Node) teardown() {
	close(n.stop)
	if n.ln != nil {
		n.ln.Close()
	}
	n.connMu.Lock()
	for c := range n.conns {
		c.Close()
	}
	n.connMu.Unlock()
	n.wg.Wait()
	n.peers.CloseIdleConnections()
}

func (n *Node) trackConn(c net.Conn) bool {
	n.connMu.Lock()
	defer n.connMu.Unlock()
	if n.stopped.Load() || n.partitioned.Load() {
		return false
	}
	n.conns[c] = struct{}{}
	return true
}

func (n *Node) untrackConn(c net.Conn) {
	n.connMu.Lock()
	delete(n.conns, c)
	n.connMu.Unlock()
}

// becomeLeader flips the shard to leader under the given fencing epoch
// and reopens it for writes.
func (n *Node) becomeLeader(si int, epoch uint64) {
	sr := n.shards[si]
	sr.epoch.Store(epoch)
	sr.role.Store(roleLeader)
	sr.lastHB.Store(time.Now().UnixNano())
	n.corpus.SetShardWritable(si, true)
	n.cfg.Logf("cluster %s: shard %d: leader at epoch %d", n.cfg.ID, si, epoch)
}

// demote fences the shard down to follower at the (higher) epoch — the
// path a revived old leader takes when it learns of the new regime.
func (n *Node) demote(si int, epoch uint64) {
	sr := n.shards[si]
	for {
		cur := sr.epoch.Load()
		if epoch <= cur || sr.epoch.CompareAndSwap(cur, epoch) {
			break
		}
	}
	if sr.role.Swap(roleFollower) == roleLeader {
		n.corpus.SetShardWritable(si, false)
		n.cfg.Logf("cluster %s: shard %d: demoted at epoch %d", n.cfg.ID, si, epoch)
	}
	sr.lastHB.Store(time.Now().UnixNano())
}

// electionLoop watches follower shards for heartbeat lapses and asks
// the coordinator to promote this node when one is detected.
func (n *Node) electionLoop() {
	defer n.wg.Done()
	tick := n.cfg.ElectionTimeout / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	fenced := make([]bool, len(n.shards)) // closed below for want of a lease check
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
		}
		if n.partitioned.Load() {
			// A partitioned node can reach neither the coordinator
			// nor its peers: no lease checks, no candidacies, and no
			// writes on the shards it leads — a successor may already
			// own their next LSNs — until a check reopens or demotes.
			for si, sr := range n.shards {
				if sr.role.Load() == roleLeader && n.corpus.ShardWritable(si) {
					n.corpus.SetShardWritable(si, false)
					fenced[si] = true
				}
			}
			continue
		}
		for si, sr := range n.shards {
			wasFenced := fenced[si]
			fenced[si] = false
			if sr.role.Load() == roleLeader {
				// Lease check: if the coordinator has moved the shard
				// to someone else at a higher epoch, we are the
				// zombie — fence down before accepting more writes.
				if id, epoch := n.coord.Leader(si); id != n.cfg.ID && epoch > sr.epoch.Load() {
					n.demote(si, epoch)
				} else if wasFenced {
					// Lease held: reopen, unless a demotion raced in.
					n.corpus.SetShardWritable(si, true)
					if sr.role.Load() != roleLeader {
						n.corpus.SetShardWritable(si, false)
					}
				}
				continue
			}
			if sr.role.Load() != roleFollower {
				continue
			}
			if time.Since(time.Unix(0, sr.lastHB.Load())) <= n.cfg.ElectionTimeout {
				continue
			}
			if !sr.role.CompareAndSwap(roleFollower, roleCandidate) {
				continue
			}
			cur := sr.epoch.Load()
			n.cfg.Logf("cluster %s: shard %d: leader silent, standing at epoch %d", n.cfg.ID, si, cur)
			if epoch, ok := n.coord.TryPromote(si, n.cfg.ID, cur); ok {
				n.becomeLeader(si, epoch)
			} else {
				if epoch > cur {
					sr.epoch.CompareAndSwap(cur, epoch)
				}
				// Lost: back to following, and give the winner a
				// full timeout before standing again.
				sr.role.CompareAndSwap(roleCandidate, roleFollower)
				sr.lastHB.Store(time.Now().UnixNano())
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Follower side: dial the leader, apply its frames, ack durable LSNs.

// shardLoop keeps one follower session per shard alive for as long as
// the shard's role is follower; it idles while the node leads.
func (n *Node) shardLoop(si int) {
	defer n.wg.Done()
	sr := n.shards[si]
	idle := time.NewTimer(0)
	if !idle.Stop() {
		<-idle.C
	}
	pause := func(d time.Duration) bool {
		idle.Reset(d)
		select {
		case <-n.stop:
			idle.Stop()
			return false
		case <-idle.C:
			return true
		}
	}
	for n.running() {
		if sr.role.Load() != roleFollower {
			if !pause(20 * time.Millisecond) {
				return
			}
			continue
		}
		leaderID, epoch := n.coord.Leader(si)
		if leaderID == n.cfg.ID {
			// The coordinator already considers us leader (static
			// ring assignment, or a promotion that landed elsewhere);
			// adopt the role.
			if sr.role.CompareAndSwap(roleFollower, roleLeader) {
				n.becomeLeader(si, epoch)
			}
			continue
		}
		if cur := sr.epoch.Load(); epoch > cur {
			sr.epoch.CompareAndSwap(cur, epoch)
		}
		addr := n.coord.ReplAddr(leaderID)
		if addr == "" {
			if !pause(100 * time.Millisecond) {
				return
			}
			continue
		}
		if err := n.followOnce(si, leaderID, addr); err != nil && n.running() {
			n.cfg.Logf("cluster %s: shard %d: session to %s: %v", n.cfg.ID, si, leaderID, err)
			if !pause(50 * time.Millisecond) {
				return
			}
		}
	}
}

// followReadTimeout returns the per-message read deadline for follower
// sessions: generous against heartbeat cadence so only a genuinely
// silent leader trips it.
func (n *Node) followReadTimeout() time.Duration {
	d := 4 * n.cfg.HeartbeatEvery
	if d < n.cfg.ElectionTimeout {
		d = n.cfg.ElectionTimeout
	}
	return d
}

// followOnce runs one replication session against the shard's leader:
// handshake, optional snapshot catch-up, then the frame stream. It
// returns nil when the session should not be retried immediately (role
// change or clean stop) and an error when the connection died.
func (n *Node) followOnce(si int, leaderID, addr string) error {
	sr := n.shards[si]
	if n.partitioned.Load() {
		return fmt.Errorf("partitioned")
	}
	d := net.Dialer{Timeout: time.Second}
	conn, err := d.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	if !n.trackConn(conn) {
		return nil
	}
	defer n.untrackConn(conn)

	hs := handshake{
		node:     n.cfg.ID,
		shard:    uint64(si),
		epoch:    sr.epoch.Load(),
		startLSN: n.corpus.CommittedLSN(si) + 1,
		minor:    protoMinor,
	}
	conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
	if err := writeMsg(conn, hs.encode()); err != nil {
		return err
	}
	br := bufio.NewReaderSize(conn, 256<<10)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	body, err := readMsg(br, maxCtrlMsg)
	if err != nil {
		return err
	}
	rp, err := decodeReply(body)
	if err != nil {
		return err
	}
	if cur := sr.epoch.Load(); rp.epoch > cur {
		sr.epoch.CompareAndSwap(cur, rp.epoch)
	}
	switch rp.status {
	case replyFrames:
	case replySnapshot:
		conn.SetReadDeadline(time.Now().Add(30 * time.Second))
		body, err := readMsg(br, maxSnapMsg)
		if err != nil {
			return err
		}
		sm, err := decodeSnapMsg(body)
		if err != nil {
			return err
		}
		snap, err := store.DecodeSnapshot(sm.data)
		if err != nil {
			return fmt.Errorf("catch-up snapshot: %w", err)
		}
		if err := n.corpus.InstallReplicaSnapshot(si, snap); err != nil {
			return fmt.Errorf("catch-up snapshot: %w", err)
		}
		sr.lastHB.Store(time.Now().UnixNano())
		n.cfg.Logf("cluster %s: shard %d: caught up from snapshot at LSN %d", n.cfg.ID, si, sm.lsn)
	case replyNotLeader:
		return fmt.Errorf("%s no longer leads shard %d: %s", leaderID, si, rp.detail)
	case replyEpoch:
		// The dialed node is behind our epoch — a stale leader. Let
		// the coordinator view converge.
		return fmt.Errorf("%s is stale (epoch %d < ours): %s", leaderID, rp.epoch, rp.detail)
	default:
		return fmt.Errorf("handshake rejected (%d): %s", rp.status, rp.detail)
	}
	return n.followStream(si, sr, conn, br)
}

// maxReplBatch bounds the frames of one replicated batch.
const maxReplBatch = 512

// followStream applies the leader's frame/heartbeat stream until the
// connection dies, the epoch moves on, or the node's role changes.
//
// The session is one serial loop: read frames until the socket goes
// quiet or the batch holds maxReplBatch frames, apply the batch (the
// call returns once it is durable and indexed), then ack CommittedLSN
// upstream. Frames that arrive during this node's fsync wait in the
// socket and form the next batch; the leader's replWindow credit bounds
// them. A heartbeat applies any batch in hand and is acked even when the
// position did not move: the leader's ack reader times out on a silent
// follower.
func (n *Node) followStream(si int, sr *shardRepl, conn net.Conn, br *bufio.Reader) error {
	readTimeout := n.followReadTimeout()
	read := n.corpus.CommittedLSN(si) // last LSN read off the stream
	var batch []serve.ReplFrame
	var batchBytes int64
	for {
		if !n.running() || sr.role.Load() != roleFollower {
			return nil
		}
		conn.SetReadDeadline(time.Now().Add(readTimeout))
		body, err := readMsg(br, maxFrameMsg)
		if err != nil {
			return err
		}
		switch body[0] {
		case msgFrame:
			f, err := decodeFrameMsg(body)
			if err != nil {
				return err
			}
			if err := n.checkEpoch(sr, f.epoch); err != nil {
				return err
			}
			sr.lastHB.Store(time.Now().UnixNano())
			if f.lsn != read+1 {
				return fmt.Errorf("frame at LSN %d, want %d", f.lsn, read+1)
			}
			read = f.lsn
			if f.lsn > sr.leaderCommit.Load() {
				sr.leaderCommit.Store(f.lsn)
			}
			batch = append(batch, serve.ReplFrame{LSN: f.lsn, Payload: f.payload})
			batchBytes += int64(len(f.payload))
			// Batch greedily: apply once the socket goes quiet.
			if br.Buffered() > 0 && len(batch) < maxReplBatch {
				continue
			}
		case msgHeartbeat:
			hb, err := decodeHeartbeat(body)
			if err != nil {
				return err
			}
			if err := n.checkEpoch(sr, hb.epoch); err != nil {
				return err
			}
			sr.lastHB.Store(time.Now().UnixNano())
			if hb.commitLSN > sr.leaderCommit.Load() {
				sr.leaderCommit.Store(hb.commitLSN)
			}
		default:
			return fmt.Errorf("unexpected message kind %q mid-stream", body[0])
		}
		if len(batch) > 0 {
			updateAvg(&sr.avgFrameBytes, batchBytes/int64(len(batch)))
			if err := n.corpus.ApplyReplicated(si, batch); err != nil {
				return fmt.Errorf("replicated apply: %w", err)
			}
			// A fresh slice per batch: a reused one would keep up to
			// 512 decoded frames (~80 KB) alive per idle session.
			batch, batchBytes = nil, 0
		}
		conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
		if err := writeMsg(conn, ack{lsn: n.corpus.CommittedLSN(si)}.encode()); err != nil {
			return err
		}
	}
}

// checkEpoch enforces fencing on an incoming leader message: refuse
// anything from an older epoch (a revived old leader), adopt anything
// newer.
func (n *Node) checkEpoch(sr *shardRepl, epoch uint64) error {
	for {
		cur := sr.epoch.Load()
		if epoch < cur {
			return fmt.Errorf("refusing frame from stale epoch %d (current %d)", epoch, cur)
		}
		if epoch == cur || sr.epoch.CompareAndSwap(cur, epoch) {
			return nil
		}
	}
}

func updateAvg(a *atomic.Int64, sample int64) {
	old := a.Load()
	if old == 0 {
		a.Store(sample)
		return
	}
	a.Store(old + (sample-old)/8)
}

// ---------------------------------------------------------------------------
// Leader side: accept follower sessions, ship committed frames.

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return
		}
		if !n.trackConn(conn) {
			conn.Close()
			return
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			defer n.untrackConn(conn)
			defer conn.Close()
			n.serveSession(conn)
		}()
	}
}

// serveSession handles one follower connection: handshake verdict,
// optional snapshot, then ship frames until disconnection or fencing.
func (n *Node) serveSession(conn net.Conn) {
	br := bufio.NewReaderSize(conn, 4<<10)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	body, err := readMsg(br, maxCtrlMsg)
	if err != nil {
		return
	}
	hs, err := decodeHandshake(body)
	if err != nil {
		n.cfg.Logf("cluster %s: bad handshake: %v", n.cfg.ID, err)
		n.sendReply(conn, reply{status: replyError, detail: err.Error()})
		return
	}
	si := int(hs.shard)
	if si < 0 || si >= len(n.shards) {
		n.sendReply(conn, reply{status: replyError, detail: fmt.Sprintf("no shard %d", si)})
		return
	}
	sr := n.shards[si]
	myEpoch := sr.epoch.Load()
	// Only another member may follow, or fence this node with a higher
	// epoch: a track's acks count toward the write quorum and its
	// position holds WAL truncation.
	if hs.node == n.cfg.ID || !slices.Contains(n.coord.Nodes(), hs.node) {
		n.sendReply(conn, reply{status: replyError, epoch: myEpoch,
			detail: fmt.Sprintf("%q is not a follower member of the cluster", hs.node)})
		return
	}
	if hs.epoch > myEpoch {
		// The follower has seen a higher epoch than ours: we are the
		// stale one. Refuse the session and fence ourselves.
		n.sendReply(conn, reply{status: replyEpoch, epoch: hs.epoch,
			detail: fmt.Sprintf("your epoch %d > mine %d; demoting", hs.epoch, myEpoch)})
		n.demote(si, hs.epoch)
		return
	}
	if sr.role.Load() != roleLeader {
		n.sendReply(conn, reply{status: replyNotLeader, epoch: myEpoch,
			detail: fmt.Sprintf("%s is %s for shard %d", n.cfg.ID, roleName(sr.role.Load()), si)})
		return
	}

	start := hs.startLSN
	if start == 0 {
		start = 1
	}
	committed := n.corpus.CommittedLSN(si)
	if start > committed+1 {
		n.sendReply(conn, reply{status: replyError, epoch: myEpoch,
			detail: fmt.Sprintf("follower at %d is ahead of committed %d", start, committed)})
		return
	}

	var snap *snapMsg
	if first := n.corpus.WALFirstLSN(si); start < first {
		// The frames the follower needs are truncated away: ship a
		// snapshot, then stream from just past it.
		s, err := n.corpus.SnapshotForCatchup(si)
		if err != nil {
			n.sendReply(conn, reply{status: replyError, epoch: myEpoch, detail: err.Error()})
			return
		}
		snap = &snapMsg{lsn: s.LSN, data: store.EncodeSnapshot(s)}
		start = s.LSN + 1
	}

	track := n.registerFollower(si, hs.node, start-1)
	status := byte(replyFrames)
	if snap != nil {
		status = replySnapshot
	}
	if !n.sendReply(conn, reply{status: status, epoch: myEpoch}) {
		return
	}
	if snap != nil {
		conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
		if err := writeMsg(conn, snap.encode()); err != nil {
			return
		}
	}
	n.cfg.Logf("cluster %s: shard %d: follower %s attached at LSN %d (epoch %d)", n.cfg.ID, si, hs.node, start, myEpoch)

	// Acks are the only follower→leader traffic after the handshake;
	// drain them concurrently with shipping.
	ackDone := make(chan struct{})
	go func() {
		defer close(ackDone)
		defer conn.Close() // unblocks the ship loop on ack failure
		for {
			conn.SetReadDeadline(time.Now().Add(4 * n.followReadTimeout()))
			body, err := readMsg(br, maxCtrlMsg)
			if err != nil {
				return
			}
			a, err := decodeAck(body)
			if err != nil {
				return
			}
			if a.lsn > track.acked.Load() {
				track.acked.Store(a.lsn)
				n.recomputeTruncateFloor(si)
				sr.ackNotify.Signal()
			}
		}
	}()
	n.shipFrames(si, sr, conn, myEpoch, start, track)
	conn.Close()
	<-ackDone
}

func (n *Node) sendReply(conn net.Conn, rp reply) bool {
	rp.minor = protoMinor
	conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
	return writeMsg(conn, rp.encode()) == nil
}

// Shipping tunables. replWindow is the windowed-credit bound: the
// leader stops streaming when the frames in flight beyond the
// follower's cumulative ack reach it, so a slow follower backpressures
// the stream instead of buffering without bound. shipBatchBytes packs
// frames into large socket writes. replAckTimeout bounds how long a
// leader holds a feedback 202 waiting for a quorum of followers to ack
// the batch's commit position. On timeout the client gets 503 and
// retries — the batch is locally durable but was never acknowledged,
// so a retry can double-count yet nothing acked is ever lost.
const (
	replWindow     = 4096
	shipBatchBytes = 256 << 10
	replAckTimeout = 5 * time.Second
)

// shipFrames streams the shard's WAL frames from pos onward,
// heartbeating while idle, until the connection dies or this node stops
// leading the shard at the session epoch.
//
// It ships from one WAL reader that follows the log for the whole
// session. Every frame it ships is at or below the committed position,
// so it is durable and final: a failed commit never reaches a follower.
func (n *Node) shipFrames(si int, sr *shardRepl, conn net.Conn, epoch, pos uint64, track *followerTrack) {
	hb := time.NewTicker(n.cfg.HeartbeatEvery)
	defer hb.Stop()
	rd := n.corpus.WALReader(si, pos)
	defer rd.Close()
	var (
		out     bytes.Buffer
		scratch []byte
	)
	sendHB := func(committed uint64) bool {
		msg := heartbeat{epoch: epoch, commitLSN: committed, nanos: uint64(time.Now().UnixNano())}
		conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
		return writeMsg(conn, msg.encode()) == nil
	}
	// committedC and acked are this iteration's wake-up edges, armed at
	// the top of the loop BEFORE the log and ack positions are sampled
	// (the order WaitReplicated keeps, for the same reason): a commit or
	// ack that lands after the sample has then already closed the channel
	// idle selects on, instead of signalling a channel nobody holds yet
	// and leaving the session asleep until the heartbeat.
	var committedC, acked <-chan struct{}
	idle := func(committed uint64) bool {
		select {
		case <-n.stop:
			return false
		case <-committedC:
			return true
		case <-acked:
			return true
		case <-hb.C:
			return sendHB(committed)
		}
	}
	for {
		if !n.running() || sr.role.Load() != roleLeader || sr.epoch.Load() != epoch {
			return
		}
		committedC, acked = sr.notify.Wait(), sr.ackNotify.Wait()
		committed := n.corpus.CommittedLSN(si)
		// Windowed credit: wait for acks once the unacked span fills the
		// window. Caught up: wait for the next commit or ack.
		if acked := track.acked.Load(); (pos > acked && pos-acked > replWindow) || pos > committed {
			if !idle(committed) {
				return
			}
			continue
		}
		out.Reset()
		var frames, frameBytes int64
		for pos <= committed && out.Len() < shipBatchBytes {
			lsn, payload, ok, err := rd.Next()
			if err != nil || !ok || lsn != pos {
				// The log was reset or truncated under the reader, or
				// ends short of the committed position: the follower will
				// re-handshake and, if needed, catch up from a snapshot.
				n.cfg.Logf("cluster %s: shard %d: ship read at %d: lsn=%d ok=%v err=%v", n.cfg.ID, si, pos, lsn, ok, err)
				return
			}
			scratch = appendFrameMsg(scratch[:0], epoch, lsn, payload)
			if err := writeMsg(&out, scratch); err != nil {
				return
			}
			frames++
			frameBytes += int64(len(payload))
			pos++
		}
		conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Write(out.Bytes()); err != nil {
			return
		}
		updateAvg(&sr.avgFrameBytes, frameBytes/frames)
	}
}

// registerFollower returns the shard's persistent track for a follower,
// creating it at the given initial ack position.
func (n *Node) registerFollower(si int, node string, acked uint64) *followerTrack {
	sr := n.shards[si]
	t := &followerTrack{}
	t.acked.Store(acked)
	if prev, loaded := sr.followers.LoadOrStore(node, t); loaded {
		t = prev.(*followerTrack)
		if acked > t.acked.Load() {
			t.acked.Store(acked)
		}
	}
	n.recomputeTruncateFloor(si)
	return t
}

// recomputeTruncateFloor holds WAL truncation at the minimum acked
// position across every registered follower, so a trailing follower
// can always resume from frames rather than a full snapshot.
func (n *Node) recomputeTruncateFloor(si int) {
	sr := n.shards[si]
	floor := uint64(store.NoTruncateFloor)
	sr.followers.Range(func(_, v any) bool {
		if acked := v.(*followerTrack).acked.Load(); acked+1 < floor {
			floor = acked + 1
		}
		return true
	})
	n.corpus.SetTruncateFloor(si, floor)
}

// quorumFollowerAcks is how many follower acks a write needs before it
// may be acknowledged: majority of the membership minus the leader
// itself (3 nodes → 1 follower, 5 → 2, 1 → 0).
func (n *Node) quorumFollowerAcks() int {
	return len(n.coord.Nodes()) / 2
}

// WaitReplicated blocks until at least `need` registered followers of
// the shard have acked an LSN ≥ lsn, or the timeout lapses. This is
// the semi-synchronous half of the durability contract: a 202 means
// the batch is on a majority of nodes, so leader death cannot lose it
// — the election promotes the most-caught-up follower, which has it.
func (n *Node) WaitReplicated(shard int, lsn uint64, need int, timeout time.Duration) error {
	if need <= 0 {
		return nil
	}
	sr := n.shards[shard]
	deadline := time.Now().Add(timeout)
	for {
		wait := sr.ackNotify.Wait() // arm before checking: no lost wakeups
		got := 0
		sr.followers.Range(func(_, v any) bool {
			if v.(*followerTrack).acked.Load() >= lsn {
				got++
			}
			return got < need
		})
		if got >= need {
			return nil
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return fmt.Errorf("cluster: %d/%d follower acks for shard %d LSN %d after %s", got, need, shard, lsn, timeout)
		}
		t := time.NewTimer(remain)
		select {
		case <-n.stop:
			t.Stop()
			return fmt.Errorf("cluster: node stopping")
		case <-wait:
			t.Stop()
		case <-t.C:
		}
	}
}

// ---------------------------------------------------------------------------
// Stale-read guard and health.

// rankPath reports whether the request is a rank read subject to the
// staleness bound.
func rankPath(p string) bool {
	return p == "/v1/rank" || p == "/v1/rank/batch"
}

// guardHandler puts the stale-read guard in front of the API: rank
// reads 503 with stale_replica while any shard's replica is outside the
// staleness bound, so clients (and the cluster front door) fail over to
// a fresher node instead of silently reading arbitrarily old rankings.
// (The other cluster-side contract, quorum-held feedback 202s, is
// holdForQuorum, installed inside the feedback handler.)
func (n *Node) guardHandler(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if rankPath(r.URL.Path) {
			if stale, why := n.staleShard(); stale {
				errorOut(w, http.StatusServiceUnavailable, ErrCodeStaleReplica, why, 1000)
				return
			}
		}
		inner.ServeHTTP(w, r)
	})
}

// holdForQuorum runs between a feedback batch's local commit and its
// 202 (serve.Server.HoldFeedbackAcks), on the end LSN of the group
// commit that made the batch durable on each shard it touched: the
// acknowledgment is withheld until each of those positions is on a
// quorum of followers (semi-synchronous replication — the property the
// leader-kill chaos gate asserts). A shard's later groups are not waited
// for. A timeout turns the 202 into a 503 replication_lag: the batch is
// locally durable but unacknowledged, so the client retries
// (at-least-once) rather than trusting an ack that one disk failure
// could erase.
func (n *Node) holdForQuorum(lsns []uint64) error {
	need := n.quorumFollowerAcks()
	if need == 0 {
		return nil
	}
	for si, lsn := range lsns {
		if lsn == 0 {
			continue
		}
		if err := n.WaitReplicated(si, lsn, need, replAckTimeout); err != nil {
			return err
		}
	}
	return nil
}

// staleShard reports whether any follower shard violates the staleness
// bound (lag in frames, or leader silence).
func (n *Node) staleShard() (bool, string) {
	now := time.Now()
	for si, sr := range n.shards {
		role := sr.role.Load()
		if role == roleLeader {
			continue
		}
		if age := now.Sub(time.Unix(0, sr.lastHB.Load())); age > n.cfg.MaxHeartbeatAge {
			return true, fmt.Sprintf("shard %d: no leader heartbeat for %s (bound %s)", si, age.Round(time.Millisecond), n.cfg.MaxHeartbeatAge)
		}
		committed := n.corpus.CommittedLSN(si)
		if lc := sr.leaderCommit.Load(); lc > committed && lc-committed > n.cfg.MaxFollowerLag {
			return true, fmt.Sprintf("shard %d: replica %d frames behind leader (bound %d)", si, lc-committed, n.cfg.MaxFollowerLag)
		}
	}
	return false, ""
}

// replicationHealth builds the /v1/healthz replication block.
func (n *Node) replicationHealth() *serve.ReplicationHealth {
	h := &serve.ReplicationHealth{
		Node:         n.cfg.ID,
		MaxLagFrames: n.cfg.MaxFollowerLag,
	}
	leaders := 0
	now := time.Now()
	for si, sr := range n.shards {
		role := sr.role.Load()
		row := serve.ReplShardHealth{
			Shard:        si,
			Role:         roleName(role),
			Epoch:        sr.epoch.Load(),
			CommittedLSN: n.corpus.CommittedLSN(si),
		}
		if role == roleLeader {
			leaders++
			row.WindowCap = replWindow
			sr.followers.Range(func(k, v any) bool {
				t := v.(*followerTrack)
				fl := serve.FollowerLag{Node: k.(string), AckedLSN: t.acked.Load()}
				if fl.AckedLSN < row.CommittedLSN {
					fl.LagFrames = row.CommittedLSN - fl.AckedLSN
					fl.LagBytes = int64(fl.LagFrames) * sr.avgFrameBytes.Load()
				}
				if fl.LagFrames > row.WindowFrames {
					row.WindowFrames = fl.LagFrames
				}
				row.Followers = append(row.Followers, fl)
				return true
			})
		} else {
			row.LeaderLSN = sr.leaderCommit.Load()
			if row.LeaderLSN > row.CommittedLSN {
				row.LagFrames = row.LeaderLSN - row.CommittedLSN
				row.LagBytes = int64(row.LagFrames) * sr.avgFrameBytes.Load()
			}
			if last := sr.lastHB.Load(); last > 0 {
				row.HeartbeatAgeMillis = now.Sub(time.Unix(0, last)).Milliseconds()
			} else {
				row.HeartbeatAgeMillis = -1
			}
		}
		h.Shards = append(h.Shards, row)
	}
	switch leaders {
	case len(n.shards):
		h.Role = "leader"
	case 0:
		h.Role = "follower"
	default:
		h.Role = "mixed"
	}
	return h
}

package cluster

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/serve"
)

// Options sizes an in-process cluster (the chaos harness's 3-node
// target and the integration tests).
type Options struct {
	// Nodes is the member count (default 3).
	Nodes int
	// Shards is the per-node shard count (default 4).
	Shards int
	// DataDir is the parent directory; each node gets DataDir/n<i>.
	// Required.
	DataDir string
	// Arms, Seed and Corpus parameterize each node's serve.Config;
	// Corpus, when non-nil, may tweak the config per node (fault
	// injectors, queue sizes) before the node is built.
	Arms   []serve.Arm
	Seed   uint64
	Corpus func(i int, cfg *serve.Config)
	// Replication tuning, forwarded to every NodeConfig (zeros select
	// the node defaults).
	HeartbeatEvery  time.Duration
	ElectionTimeout time.Duration
	MaxHeartbeatAge time.Duration
	MaxFollowerLag  uint64
	Logf            func(format string, args ...any)
	// WrapFrontDoor, when non-nil, wraps each node's front door before
	// it is served — the chaos harness threads one shared AckRecorder
	// through every door so the acked ledger survives node death.
	WrapFrontDoor func(h http.Handler) http.Handler
}

// Cluster is a set of in-process nodes with real TCP replication and
// real HTTP serving between them, plus the registry that arbitrates
// failover. Kill a node and the rest re-elect and carry on — the
// whole point.
type Cluster struct {
	Registry *Registry
	opts     Options
	nodes    []*Node
	apiSrvs  []*httptest.Server
	fdSrvs   []*httptest.Server
	killed   []bool
}

// New builds and starts the cluster: every node recovers from its data
// directory (fresh directories boot empty), leadership is assigned
// from the consistent-hash ring, and followers attach to leaders.
func New(opts Options) (*Cluster, error) {
	if opts.Nodes == 0 {
		opts.Nodes = 3
	}
	if opts.Shards == 0 {
		opts.Shards = 4
	}
	if opts.DataDir == "" {
		return nil, fmt.Errorf("cluster: Options.DataDir required")
	}
	c := &Cluster{
		Registry: NewRegistry(opts.Shards),
		opts:     opts,
		killed:   make([]bool, opts.Nodes),
	}
	for i := 0; i < opts.Nodes; i++ {
		n, err := c.buildNode(i)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.nodes = append(c.nodes, n)
		c.Registry.Register(n)
	}
	c.Registry.AssignInitialLeaders()
	for _, n := range c.nodes {
		if err := n.Start(); err != nil {
			c.Close()
			return nil, err
		}
		c.serveNode(n)
	}
	return c, nil
}

// buildNode constructs node i from the cluster options (also the
// restart path, so a rebuilt node gets an identical configuration).
func (c *Cluster) buildNode(i int) (*Node, error) {
	id := fmt.Sprintf("n%d", i)
	dir := filepath.Join(c.opts.DataDir, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cfg := serve.Config{Shards: c.opts.Shards, Arms: c.opts.Arms, Seed: c.opts.Seed}
	cfg.Durability.DataDir = dir
	if c.opts.Corpus != nil {
		c.opts.Corpus(i, &cfg)
	}
	return NewNode(NodeConfig{
		ID:              id,
		Corpus:          cfg,
		MaxFollowerLag:  c.opts.MaxFollowerLag,
		MaxHeartbeatAge: c.opts.MaxHeartbeatAge,
		HeartbeatEvery:  c.opts.HeartbeatEvery,
		ElectionTimeout: c.opts.ElectionTimeout,
		Logf:            c.opts.Logf,
	}, c.Registry)
}

// serveNode attaches HTTP servers (API + front door) to a started node.
func (c *Cluster) serveNode(n *Node) {
	api := httptest.NewServer(n.Handler())
	c.apiSrvs = append(c.apiSrvs, api)
	c.Registry.SetAPIURL(n.ID(), api.URL)
	var fh http.Handler = NewFrontDoor(n)
	if c.opts.WrapFrontDoor != nil {
		fh = c.opts.WrapFrontDoor(fh)
	}
	c.fdSrvs = append(c.fdSrvs, httptest.NewServer(fh))
}

// RestartNode brings a killed node back: a brand-new Node over the same
// data directory (recovering WAL + snapshot like a restarted process),
// re-registered under its old ID. With wipe, the data directory is
// cleared first — the fresh-follower case that exercises snapshot
// catch-up when the leader's WAL tail is long truncated.
func (c *Cluster) RestartNode(i int, wipe bool) error {
	if !c.killed[i] {
		return fmt.Errorf("cluster: node %d is not dead", i)
	}
	id := fmt.Sprintf("n%d", i)
	if wipe {
		if err := os.RemoveAll(filepath.Join(c.opts.DataDir, id)); err != nil {
			return err
		}
	}
	n, err := c.buildNode(i)
	if err != nil {
		return err
	}
	c.Registry.Register(n)
	if err := n.Start(); err != nil {
		return err
	}
	c.nodes[i] = n
	api := httptest.NewServer(n.Handler())
	c.apiSrvs[i] = api
	c.Registry.SetAPIURL(id, api.URL)
	var fh http.Handler = NewFrontDoor(n)
	if c.opts.WrapFrontDoor != nil {
		fh = c.opts.WrapFrontDoor(fh)
	}
	c.fdSrvs[i] = httptest.NewServer(fh)
	c.killed[i] = false
	return nil
}

// Len returns the node count.
func (c *Cluster) Len() int { return len(c.nodes) }

// Node returns node i.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// Index returns the index of the node with the given ID, -1 if absent.
func (c *Cluster) Index(id string) int {
	for i, n := range c.nodes {
		if n.ID() == id {
			return i
		}
	}
	return -1
}

// FrontDoorURL returns node i's front-door base URL.
func (c *Cluster) FrontDoorURL(i int) string { return c.fdSrvs[i].URL }

// APIURL returns node i's raw API base URL.
func (c *Cluster) APIURL(i int) string { return c.apiSrvs[i].URL }

// FirstAliveFrontDoor returns the lowest-index live node's front-door
// URL — the re-resolve target loadgen uses after a failover ("" when
// everything is dead).
func (c *Cluster) FirstAliveFrontDoor() string {
	for i, n := range c.nodes {
		if !c.killed[i] && n.Alive() {
			return c.fdSrvs[i].URL
		}
	}
	return ""
}

// LeaderIndex returns the index of the node currently leading the
// shard.
func (c *Cluster) LeaderIndex(shard int) int {
	id, _ := c.Registry.Leader(shard)
	return c.Index(id)
}

// Add routes a page insertion to the leader of its shard.
func (c *Cluster) Add(id int, text string, popularity float64) error {
	shard := serve.ShardIndex(id, c.nodes[0].Corpus().Shards())
	li := c.LeaderIndex(shard)
	if li < 0 {
		return fmt.Errorf("cluster: shard %d has no live leader", shard)
	}
	return c.nodes[li].Corpus().Add(id, text, popularity)
}

// KillNode SIGKILLs node i: its HTTP servers drop every connection
// mid-flight and its corpus dies without a final snapshot. The
// registry sees it dead; followers elect a successor.
func (c *Cluster) KillNode(i int) {
	if c.killed[i] {
		return
	}
	c.killed[i] = true
	c.fdSrvs[i].CloseClientConnections()
	c.fdSrvs[i].Close()
	c.apiSrvs[i].CloseClientConnections()
	c.apiSrvs[i].Close()
	c.nodes[i].Kill()
}

// Close shuts the whole cluster down cleanly (killed nodes stay dead).
func (c *Cluster) Close() {
	for i, n := range c.nodes {
		if c.killed[i] {
			continue
		}
		c.killed[i] = true
		if i < len(c.fdSrvs) {
			c.fdSrvs[i].Close()
		}
		if i < len(c.apiSrvs) {
			c.apiSrvs[i].Close()
		}
		n.Close()
	}
}

// WaitForLeaderChange blocks until the shard's leader is no longer
// oldLeader (by ID), or the timeout lapses.
func (c *Cluster) WaitForLeaderChange(shard int, oldLeader string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if cur, _ := c.Registry.Leader(shard); cur != oldLeader {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: shard %d still led by %s after %s", shard, oldLeader, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// WaitConverged blocks until every live follower's committed position
// matches its leader's on every shard and the follower has indexed what
// it committed (replication fully drained). It first syncs every live
// node: Add only enqueues, so without the sync every node could compare
// equal before the leader had logged any of its adds.
func (c *Cluster) WaitConverged(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for i, n := range c.nodes {
		if !c.killed[i] {
			n.Corpus().Sync()
		}
	}
	for {
		lagged := c.lagDescription()
		if lagged == "" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: not converged after %s: %s", timeout, lagged)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (c *Cluster) lagDescription() string {
	shards := c.nodes[0].Corpus().Shards()
	for si := 0; si < shards; si++ {
		li := c.LeaderIndex(si)
		if li < 0 || c.killed[li] {
			return fmt.Sprintf("shard %d has no live leader", si)
		}
		want := c.nodes[li].Corpus().CommittedLSN(si)
		for i, n := range c.nodes {
			if c.killed[i] || i == li {
				continue
			}
			if got := n.Corpus().CommittedLSN(si); got != want {
				return fmt.Sprintf("shard %d: %s at %d, leader %s at %d", si, n.ID(), got, c.nodes[li].ID(), want)
			}
			if n.Corpus().Indexing(si) {
				return fmt.Sprintf("shard %d: %s still indexing", si, n.ID())
			}
		}
	}
	return ""
}

package cluster

import (
	"sort"
	"sync"
)

// Registry is the in-process coordinator: it holds the authoritative
// (leader, epoch) pair per shard and arbitrates promotions. It stands
// in for the external consensus service a production deployment would
// use (the paper's serving stack assumes one exists); keeping it
// in-process is what lets the chaos harness SIGKILL a leader and watch
// a real election without a third-party dependency.
//
// The fencing rule it enforces: an epoch advances only inside
// TryPromote, under the registry lock, by exactly one winner. Frames
// from the old epoch are refused by every follower from that moment
// on, so a revived old leader can no longer replicate anything — its
// only path back into the cluster is demoting itself, which its next
// coordinator lease check does as soon as it can reach the registry.
type Registry struct {
	mu     sync.Mutex
	nodes  map[string]*Node
	order  []string // sorted IDs, for stable iteration
	shards []regShard
	api    map[string]string // node ID → API base URL
	dead   map[string]bool   // operator-declared failed nodes
}

type regShard struct {
	epoch  uint64
	leader string
}

// NewRegistry creates a registry arbitrating the given shard count.
func NewRegistry(shards int) *Registry {
	return &Registry{
		nodes:  make(map[string]*Node),
		shards: make([]regShard, shards),
		api:    make(map[string]string),
		dead:   make(map[string]bool),
	}
}

// Register adds a node. Call before the node's Start.
func (r *Registry) Register(n *Node) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nodes[n.ID()]; !ok {
		r.order = append(r.order, n.ID())
		sort.Strings(r.order)
	}
	r.nodes[n.ID()] = n
	// Re-registering under an old ID is a restart: the node is back.
	delete(r.dead, n.ID())
}

// SetAPIURL records a node's HTTP base URL (the front door and tests
// route through it).
func (r *Registry) SetAPIURL(node, url string) {
	r.mu.Lock()
	r.api[node] = url
	r.mu.Unlock()
}

// AssignInitialLeaders seeds every shard's leadership from the
// consistent-hash ring over the registered nodes, at epoch 1. Call
// once, after all Register calls, before any node's Start.
func (r *Registry) AssignInitialLeaders() {
	r.mu.Lock()
	defer r.mu.Unlock()
	ring := NewRing(r.order)
	for si := range r.shards {
		r.shards[si] = regShard{epoch: 1, leader: ring.ShardLeader(si)}
	}
}

func (r *Registry) nodeAlive(id string) bool {
	if r.dead[id] {
		return false
	}
	n := r.nodes[id]
	return n != nil && n.Alive()
}

// Leader implements Coordinator.
func (r *Registry) Leader(shard int) (string, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.shards[shard]
	return s.leader, s.epoch
}

// Epoch returns the shard's current fencing epoch.
func (r *Registry) Epoch(shard int) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.shards[shard].epoch
}

// TryPromote implements Coordinator: candidate asks to replace the
// leader it saw at fromEpoch. The promotion succeeds only when (1) the
// epoch has not moved — nobody else won already, (2) the incumbent
// really is dead, and (3) no better-caught-up live node exists (ties
// break to the lexicographically smallest ID, so concurrent candidates
// agree on the winner without talking to each other).
func (r *Registry) TryPromote(shard int, candidate string, fromEpoch uint64) (uint64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.shards[shard]
	if s.epoch != fromEpoch {
		return s.epoch, false
	}
	if r.nodeAlive(s.leader) {
		return s.epoch, false
	}
	cn := r.nodes[candidate]
	if cn == nil || !r.nodeAlive(candidate) {
		return s.epoch, false
	}
	candLSN := cn.Corpus().CommittedLSN(shard)
	for _, id := range r.order {
		if id == candidate || !r.nodeAlive(id) || id == s.leader {
			continue
		}
		lsn := r.nodes[id].Corpus().CommittedLSN(shard)
		if lsn > candLSN || (lsn == candLSN && id < candidate) {
			// A more-caught-up (or tie-favored) node exists; its own
			// election timer will claim the shard.
			return s.epoch, false
		}
	}
	s.epoch++
	s.leader = candidate
	// A still-running old leader (partition, not crash) is NOT
	// demoted here — the arbiter may not be able to reach it, and
	// pretending otherwise would hide the real fencing mechanisms:
	// its next coordinator lease check demotes it, and until then
	// every follower refuses its stale-epoch frames.
	return s.epoch, true
}

// ReplAddr implements Coordinator.
func (r *Registry) ReplAddr(node string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := r.nodes[node]; n != nil {
		return n.ReplAddr()
	}
	return ""
}

// APIURL implements Coordinator.
func (r *Registry) APIURL(node string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.api[node]
}

// Nodes implements Coordinator.
func (r *Registry) Nodes() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.order...)
}

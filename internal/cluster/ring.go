package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Ring maps shard indexes to node IDs by consistent hashing. Every
// node contributes ringVnodes virtual points; a shard lands on the
// first point clockwise of its own hash. The mapping is a pure
// function of the sorted node-ID set, so every process that knows the
// member list computes the same leadership without talking to anyone —
// that is what lets multi-process deployments run with static
// leadership (no coordinator) and what keeps the in-process registry's
// initial assignment deterministic under test.
type Ring struct {
	points []ringPoint // sorted by hash, then node
}

type ringPoint struct {
	hash uint64
	node string
}

// ringVnodes is the virtual-point count per node. 64 keeps the
// shard→node spread within a few percent of even for small clusters
// without making ring construction noticeable.
const ringVnodes = 64

func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	// FNV alone clusters badly on short, similar keys ("n0#1",
	// "n0#2", …); a splitmix64 finalizer spreads the points.
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// NewRing builds a ring over the given node IDs. IDs are deduplicated
// and the points sorted, so argument order never changes the mapping.
func NewRing(nodeIDs []string) *Ring {
	seen := make(map[string]bool, len(nodeIDs))
	r := &Ring{}
	for _, id := range nodeIDs {
		if id == "" || seen[id] {
			continue
		}
		seen[id] = true
		for v := 0; v < ringVnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash: ringHash(fmt.Sprintf("%s#%d", id, v)),
				node: id,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r
}

// ShardLeader returns the node that owns shard si under the current
// membership. Panics on an empty ring — a cluster with no nodes is a
// construction bug, not a runtime condition.
func (r *Ring) ShardLeader(si int) string {
	if len(r.points) == 0 {
		panic("cluster: ShardLeader on empty ring")
	}
	h := ringHash(fmt.Sprintf("shard/%d", si))
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}

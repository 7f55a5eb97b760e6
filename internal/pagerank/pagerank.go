// Package pagerank provides the link-analysis substrate the paper's
// popularity measures build on: a compact sparse web graph, PageRank by
// power iteration with teleportation (the random-surfer model of
// Section 8), in-degree counting, and an evolving preferential-attachment
// graph generator for synthesizing link-based popularity workloads.
package pagerank

import (
	"fmt"
	"math"

	"repro/internal/randutil"
)

// DefaultDamping is 1 − c for the paper's teleportation probability
// c = 0.15.
const DefaultDamping = 0.85

// Graph is a directed graph over nodes 0..n−1 in compressed sparse row
// form. Build one with NewBuilder/Build or generate one with
// PreferentialAttachment.
type Graph struct {
	n      int
	outPtr []int // len n+1; out-neighbors of u are outAdj[outPtr[u]:outPtr[u+1]]
	outAdj []int
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.outAdj) }

// OutDegree returns the out-degree of node u.
func (g *Graph) OutDegree(u int) int { return g.outPtr[u+1] - g.outPtr[u] }

// OutNeighbors returns a shared-backing slice of u's out-neighbors; the
// caller must not modify it.
func (g *Graph) OutNeighbors(u int) []int { return g.outAdj[g.outPtr[u]:g.outPtr[u+1]] }

// Builder accumulates edges before freezing them into a Graph.
type Builder struct {
	n     int
	edges [][2]int
}

// NewBuilder creates a builder over n nodes.
func NewBuilder(n int) (*Builder, error) {
	if n <= 0 {
		return nil, fmt.Errorf("pagerank: need at least one node, got %d", n)
	}
	return &Builder{n: n}, nil
}

// AddEdge records a directed edge u → v. Self-loops are permitted;
// duplicate edges add weight by repetition.
func (b *Builder) AddEdge(u, v int) error {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return fmt.Errorf("pagerank: edge (%d,%d) outside [0,%d)", u, v, b.n)
	}
	b.edges = append(b.edges, [2]int{u, v})
	return nil
}

// Build freezes the accumulated edges into CSR form.
func (b *Builder) Build() *Graph {
	g := &Graph{n: b.n, outPtr: make([]int, b.n+1)}
	for _, e := range b.edges {
		g.outPtr[e[0]+1]++
	}
	for i := 0; i < b.n; i++ {
		g.outPtr[i+1] += g.outPtr[i]
	}
	g.outAdj = make([]int, len(b.edges))
	cursor := make([]int, b.n)
	for _, e := range b.edges {
		g.outAdj[g.outPtr[e[0]]+cursor[e[0]]] = e[1]
		cursor[e[0]]++
	}
	return g
}

// Options tunes the PageRank power iteration.
type Options struct {
	// Damping is 1 − teleport probability (default 0.85).
	Damping float64
	// MaxIterations bounds the power iteration (default 100).
	MaxIterations int
	// Tolerance is the L1 convergence threshold (default 1e-9).
	Tolerance float64
	// Personalization, when non-nil, biases teleportation by the given
	// non-negative weights (need not be normalized). Nil means uniform.
	Personalization []float64
}

func (o Options) withDefaults() Options {
	if o.Damping == 0 {
		o.Damping = DefaultDamping
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = 100
	}
	if o.Tolerance <= 0 {
		o.Tolerance = 1e-9
	}
	return o
}

// Result carries the computed ranks and convergence diagnostics.
type Result struct {
	Ranks      []float64
	Iterations int
	Converged  bool
}

// Compute runs power iteration with dangling-mass redistribution. Ranks
// sum to 1.
func Compute(g *Graph, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if opts.Damping < 0 || opts.Damping >= 1 {
		return nil, fmt.Errorf("pagerank: damping %v outside [0,1)", opts.Damping)
	}
	n := g.n
	// Teleport distribution.
	tele := make([]float64, n)
	if opts.Personalization != nil {
		if len(opts.Personalization) != n {
			return nil, fmt.Errorf("pagerank: personalization length %d for %d nodes",
				len(opts.Personalization), n)
		}
		sum := 0.0
		for i, w := range opts.Personalization {
			if w < 0 || math.IsNaN(w) {
				return nil, fmt.Errorf("pagerank: invalid personalization weight %v at %d", w, i)
			}
			sum += w
		}
		if sum == 0 {
			return nil, fmt.Errorf("pagerank: personalization weights all zero")
		}
		for i, w := range opts.Personalization {
			tele[i] = w / sum
		}
	} else {
		for i := range tele {
			tele[i] = 1 / float64(n)
		}
	}

	ranks := make([]float64, n)
	next := make([]float64, n)
	copy(ranks, tele)
	res := &Result{}
	d := opts.Damping
	for iter := 0; iter < opts.MaxIterations; iter++ {
		res.Iterations = iter + 1
		// Dangling nodes donate their mass through the teleport vector.
		dangling := 0.0
		for u := 0; u < n; u++ {
			if g.OutDegree(u) == 0 {
				dangling += ranks[u]
			}
		}
		for i := range next {
			next[i] = (1-d)*tele[i] + d*dangling*tele[i]
		}
		for u := 0; u < n; u++ {
			deg := g.OutDegree(u)
			if deg == 0 {
				continue
			}
			share := d * ranks[u] / float64(deg)
			for _, v := range g.OutNeighbors(u) {
				next[v] += share
			}
		}
		delta := 0.0
		for i := range next {
			delta += math.Abs(next[i] - ranks[i])
		}
		ranks, next = next, ranks
		if delta < opts.Tolerance {
			res.Converged = true
			break
		}
	}
	res.Ranks = ranks
	return res, nil
}

// PreferentialAttachment generates a directed graph of n nodes where each
// new node links to outDegree targets chosen with probability
// proportional to (in-degree + 1) — the rich-get-richer process that
// yields the power-law in-degree (and PageRank) distributions the paper's
// quality model mimics (§6.1, citing [4, 5]).
func PreferentialAttachment(n, outDegree int, rng *randutil.RNG) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("pagerank: need at least one node, got %d", n)
	}
	if outDegree < 1 {
		return nil, fmt.Errorf("pagerank: need out-degree >= 1, got %d", outDegree)
	}
	if rng == nil {
		return nil, fmt.Errorf("pagerank: nil rng")
	}
	b, err := NewBuilder(n)
	if err != nil {
		return nil, err
	}
	// repeated holds one entry per (in-degree + 1) unit of attachment
	// mass: node v appears once at creation and once per in-link, so a
	// uniform draw from repeated is a preferential draw.
	repeated := make([]int, 0, n*(outDegree+1))
	repeated = append(repeated, 0)
	for v := 1; v < n; v++ {
		deg := outDegree
		if v < outDegree {
			deg = v
		}
		for e := 0; e < deg; e++ {
			target := repeated[rng.Intn(len(repeated))]
			if err := b.AddEdge(v, target); err != nil {
				return nil, err
			}
			repeated = append(repeated, target)
		}
		repeated = append(repeated, v)
	}
	return b.Build(), nil
}

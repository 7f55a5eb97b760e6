// Package fenwick implements a Fenwick (binary indexed) tree over float64
// weights, used for O(log n) weighted sampling of pages in proportion to
// their current popularity — the visit channel of the paper's Section 8
// mixed surfing model, where a random surfer follows links with probability
// proportional to popularity.
package fenwick

import (
	"fmt"

	"repro/internal/randutil"
)

// Tree is a Fenwick tree over n float64 weights indexed 0..n-1.
// Weights must be non-negative for sampling to be meaningful.
type Tree struct {
	n    int
	tree []float64 // 1-based internal array
	raw  []float64 // current weight per index, for O(1) reads
}

// New creates a tree of the given size with all weights zero.
func New(n int) *Tree {
	if n < 0 {
		n = 0
	}
	return &Tree{n: n, tree: make([]float64, n+1), raw: make([]float64, n)}
}

// Len returns the number of slots.
func (t *Tree) Len() int { return t.n }

// Weight returns the current weight at index i.
func (t *Tree) Weight(i int) float64 {
	t.check(i)
	return t.raw[i]
}

// Set replaces the weight at index i.
func (t *Tree) Set(i int, w float64) {
	t.check(i)
	t.add(i, w-t.raw[i])
	t.raw[i] = w
}

// Add increases the weight at index i by delta (which may be negative).
func (t *Tree) Add(i int, delta float64) {
	t.check(i)
	t.add(i, delta)
	t.raw[i] += delta
}

func (t *Tree) add(i int, delta float64) {
	for j := i + 1; j <= t.n; j += j & -j {
		t.tree[j] += delta
	}
}

func (t *Tree) check(i int) {
	if i < 0 || i >= t.n {
		panic(fmt.Sprintf("fenwick: index %d out of range [0,%d)", i, t.n))
	}
}

// Prefix returns the sum of weights over indices [0, i]. Prefix(-1) is 0.
func (t *Tree) Prefix(i int) float64 {
	if i >= t.n {
		i = t.n - 1
	}
	sum := 0.0
	for j := i + 1; j > 0; j -= j & -j {
		sum += t.tree[j]
	}
	return sum
}

// Total returns the sum of all weights.
func (t *Tree) Total() float64 { return t.Prefix(t.n - 1) }

// Sample draws an index with probability proportional to its weight.
// The second return value is false when the total weight is not positive
// (nothing can be sampled).
func (t *Tree) Sample(rng *randutil.RNG) (int, bool) {
	total := t.Total()
	if total <= 0 {
		return 0, false
	}
	target := rng.Float64() * total
	// Descend the implicit tree: classic Fenwick lower_bound.
	idx := 0
	bit := highestPow2(t.n)
	for ; bit > 0; bit >>= 1 {
		next := idx + bit
		if next <= t.n && t.tree[next] < target {
			target -= t.tree[next]
			idx = next
		}
	}
	if idx >= t.n {
		// Numerical edge: target exceeded every prefix (can happen when
		// rounding makes target == total). Return the last positive slot.
		for i := t.n - 1; i >= 0; i-- {
			if t.raw[i] > 0 {
				return i, true
			}
		}
		return 0, false
	}
	return idx, true
}

func highestPow2(n int) int {
	p := 1
	for p*2 <= n {
		p *= 2
	}
	return p
}

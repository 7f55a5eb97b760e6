// The paper's §4 randomized rank-promotion merge: its inputs, its reusable
// buffers and its provenance-tagged entry point. The merge itself is one
// function, Scratch.MergeBounded (bounded.go); every surface that ranks —
// the Ranker, the simulator's QPC snapshots and the live study through
// Resolver.Materialize, and the online service — draws through it. The
// lazy resolver (resolver.go) answers single positions of the same
// merge's law without building the list.
//
// A query's result pages are split into a promotion pool Pp (selected by
// the policy's rule) and the remaining pages, which are ranked
// deterministically by popularity into a list Ld. The result list L is
// built slot by slot:
//
//  1. The top k−1 elements of Ld are placed first, preserving order
//     (these pages are "exploited unconditionally" — protected from any
//     rank demotion).
//  2. Each remaining position is filled by a biased coin flip: with
//     probability r a pool page drawn uniformly without replacement,
//     otherwise the next element of Ld. When either list empties, the
//     other is drained.
package policy

import "repro/internal/randutil"

// Source is a read-only ordered collection of page IDs. The deterministic
// list is consumed in order (rank order); the pool's order carries no
// meaning (the merge draws from it uniformly).
type Source interface {
	Len() int
	// At returns the page at 0-based index i.
	At(i int) int
}

// Slice adapts a []int to a Source. Converting a Slice value to the
// Source interface boxes the slice header (one allocation); hot paths
// that merge per request pass *Slice instead — a pointer boxes for free
// and reads the buffer's current header on every call.
type Slice []int

// Len returns the number of pages.
func (s Slice) Len() int { return len(s) }

// At returns the page at index i.
func (s Slice) At(i int) int { return s[i] }

// Scratch bundles the reusable buffers of a repeated merge — the result
// list, the provenance tags and the lazy pool shuffle — for callers that
// merge on a hot path (the serving layer runs one merge per /rank
// request, the simulator one per QPC snapshot). The zero value is ready
// to use; a Scratch is not safe for concurrent use, so pool or
// per-goroutine them.
type Scratch struct {
	dst  []int
	tags []bool
	draw lazyShuffle
}

// MergeTagged is MergeBounded over the whole list: it fills all
// det.Len()+pool.Len() positions and reports whether each was filled
// from the promotion pool.
func (s *Scratch) MergeTagged(det, pool Source, k int, r float64, rng *randutil.RNG) (merged []int, fromPool []bool) {
	return s.MergeBounded(det, pool, det.Len()+pool.Len(), k, r, rng)
}

// The merge engine: the single implementation of the paper's §4
// randomized rank-promotion merge, shared by the offline ranking
// surfaces — the Ranker and the community simulator's resolver — and the
// executable specification its two twins are tested against: the lazy
// resolver (resolver.go) and the bounded merge the online service runs
// (bounded.go). The RNG draw sequence is pinned by every fixed-seed
// experiment and golden test.
//
// A query's n result pages are split into a promotion pool Pp (selected by
// the policy's rule) and the remaining pages, which are ranked
// deterministically by popularity into a list Ld. The pool is randomly
// shuffled into a list Lp, and the two lists are merged into the final
// result list L:
//
//  1. The top k−1 elements of Ld are placed first, preserving order
//     (these pages are "exploited unconditionally" — protected from any
//     rank demotion).
//  2. Each remaining position is filled by a biased coin flip: with
//     probability r the next element of Lp, otherwise the next element of
//     Ld. When either list empties, the other is drained.
package policy

import "repro/internal/randutil"

// Source is a read-only ordered collection of page IDs. The deterministic
// list is consumed in order (rank order); the pool's order carries no
// meaning (the merge shuffles it).
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

// Merge materializes the final result list for one query: det in
// deterministic order, pool shuffled, merged per the §4 procedure with
// parameters k and r. The result is appended to dst and returned.
func Merge(det, pool Source, k int, r float64, rng *randutil.RNG, dst []int) []int {
	dst, _ = MergeScratch(det, pool, k, r, rng, dst, nil)
	return dst
}

// MergeScratch is Merge with a caller-owned scratch buffer backing the
// pool shuffle, so steady-state callers (the Ranker, per-day simulation
// merges) allocate nothing beyond the result itself. It returns the
// merged list and the (possibly grown) scratch for reuse.
func MergeScratch(det, pool Source, k int, r float64, rng *randutil.RNG, dst, scratch []int) (merged, scratchOut []int) {
	dst, _, scratch = mergeImpl(det, pool, k, r, rng, dst, nil, scratch, false)
	return dst, scratch
}

// mergeImpl is the single implementation behind Merge, MergeScratch and
// Scratch.MergeTagged. When wantTags is true it appends, parallel to each
// dst append, whether the slot was filled from the promotion pool. The
// sequence of RNG draws is identical either way, so tagged and untagged
// merges of the same inputs produce the same list.
func mergeImpl(det, pool Source, k int, r float64, rng *randutil.RNG, dst []int, tags []bool, scratch []int, wantTags bool) ([]int, []bool, []int) {
	nd, np := det.Len(), pool.Len()
	total := nd + np
	if cap(dst)-len(dst) < total {
		grown := make([]int, len(dst), len(dst)+total)
		copy(grown, dst)
		dst = grown
	}
	// Shuffled copy of the pool in the scratch buffer.
	if cap(scratch) < np {
		scratch = make([]int, np)
	}
	lp := scratch[:np]
	for i := range lp {
		lp[i] = pool.At(i)
	}
	rng.ShuffleInts(lp)

	// Step 1: top k−1 of Ld.
	prefix := min(k-1, nd)
	di := 0
	for ; di < prefix; di++ {
		dst = append(dst, det.At(di))
		if wantTags {
			tags = append(tags, false)
		}
	}
	// Step 2: biased merge of the remainder.
	pi := 0
	for di < nd && pi < np {
		if rng.Float64() < r {
			dst = append(dst, lp[pi])
			pi++
			if wantTags {
				tags = append(tags, true)
			}
		} else {
			dst = append(dst, det.At(di))
			di++
			if wantTags {
				tags = append(tags, false)
			}
		}
	}
	for ; di < nd; di++ {
		dst = append(dst, det.At(di))
		if wantTags {
			tags = append(tags, false)
		}
	}
	for ; pi < np; pi++ {
		dst = append(dst, lp[pi])
		if wantTags {
			tags = append(tags, true)
		}
	}
	return dst, tags, scratch
}

// Scratch bundles the reusable buffers of a repeated merge — the result
// list, the pool-shuffle buffer, the bounded merge's lazy shuffle and the
// optional provenance tags — for callers that merge on a hot path (the
// serving layer runs one bounded merge per /rank request). The zero
// value is ready to use; a Scratch is not safe for concurrent use, so
// pool or per-goroutine them.
type Scratch struct {
	dst     []int
	tags    []bool
	shuffle []int
	draw    lazyShuffle
}

// MergeTagged runs the §4 merge procedure with the scratch's buffers and
// reports provenance: fromPool[i] reports whether position i was filled
// from the promotion pool rather than the deterministic list. Both
// returned slices are owned by the Scratch and valid until the next call.
// The merged list is identical to what Merge would produce from the same
// inputs and RNG state.
func (s *Scratch) MergeTagged(det, pool Source, k int, r float64, rng *randutil.RNG) (merged []int, fromPool []bool) {
	s.dst, s.tags, s.shuffle = mergeImpl(det, pool, k, r, rng, s.dst[:0], s.tags[:0], s.shuffle, true)
	return s.dst, s.tags
}

package policy

import "repro/internal/randutil"

// mergeImpl is the test oracle for MergeBounded: an independent
// implementation of the §4 merge that shuffles the whole pool into a
// list Lp first and then merges Lp with det by the biased coin. It shares
// no code with MergeBounded, and its draw order differs (a full backward
// Fisher–Yates before any coin), so the tests compare the two by law,
// never draw for draw. When wantTags is true it appends, parallel to
// each dst append, whether the slot was filled from the promotion pool.
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
	rng.Shuffle(np, func(i, j int) { lp[i], lp[j] = lp[j], lp[i] })

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

// mergeAll is the production merge over the whole list, as the Ranker,
// the simulator and the live study run it.
func mergeAll(sc *Scratch, det, pool Source, k int, r float64, rng *randutil.RNG) []int {
	merged, _ := sc.MergeBounded(det, pool, det.Len()+pool.Len(), k, r, rng)
	return merged
}

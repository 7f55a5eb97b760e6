// The bounded merge: the one implementation of the §4 merge (merge.go).
// A caller showing n results needs at most n promoted pages, so the
// merge draws each one lazily, without replacement, at the moment the
// biased coin asks for it: a sparse forward Fisher–Yates over pool
// indices touches only the positions it has displaced. Per call it reads
// at most n det entries and at most n−min(k−1, det.Len()) pool entries,
// whatever the pool's size. With n = det.Len()+pool.Len() it builds the
// whole list (MergeTagged, Resolver.Materialize). The package tests check
// it against an independent oracle that shuffles the whole pool first
// and then merges: the same law at every position, by chi-square.
package policy

import "repro/internal/randutil"

// MergeBounded runs the §4 merge for the first n positions: the returned
// lists have min(n, det.Len()+pool.Len()) entries, and fromPool[i]
// reports whether position i was filled from the promotion pool rather
// than the deterministic list. The pool is read only at the indices
// drawn, so pool may be a lazy view over any number of pages; det is
// read in order and at most n times. Both returned slices are owned by
// the Scratch and valid until the next call.
func (s *Scratch) MergeBounded(det, pool Source, n, k int, r float64, rng *randutil.RNG) (merged []int, fromPool []bool) {
	nd, np := det.Len(), pool.Len()
	n = min(n, nd+np)
	dst, tags := s.dst[:0], s.tags[:0]
	prefix := min(k-1, nd, n)
	di := 0
	for ; di < prefix; di++ {
		dst = append(dst, det.At(di))
		tags = append(tags, false)
	}
	s.draw.reset(np, min(n-len(dst), np))
	for len(dst) < n {
		// The coin is tossed only while both lists have pages left, as
		// §4 defines the merge; once either empties the other drains.
		if di < nd && (s.draw.i == np || rng.Float64() >= r) {
			dst = append(dst, det.At(di))
			di++
			tags = append(tags, false)
		} else {
			dst = append(dst, pool.At(s.draw.next(rng)))
			tags = append(tags, true)
		}
	}
	s.dst, s.tags = dst, tags
	return dst, tags
}

// lazyShuffle yields a uniform random order of [0, np) one index at a
// time: the i-th next is position i of a forward Fisher–Yates shuffle.
// Only the positions a draw displaced differ from the identity, and they
// live in a small open-addressed table (keys stored +1, 0 is empty)
// sized for the draws the caller may make, so a call costs O(draws),
// never O(np).
type lazyShuffle struct {
	np, i      int
	keys, vals []int
	mask       uint64
	shift      uint
}

// reset starts a new shuffle of [0, np) for at most draws next calls.
func (f *lazyShuffle) reset(np, draws int) {
	f.np, f.i = np, 0
	size, bits := 2, uint(1)
	for size < 2*draws {
		size, bits = size*2, bits+1
	}
	if cap(f.keys) < size {
		f.keys, f.vals = make([]int, size), make([]int, size)
	}
	f.keys, f.vals = f.keys[:size], f.vals[:size]
	clear(f.keys)
	f.mask, f.shift = uint64(size-1), 64-bits
}

// slot returns the table index holding position p, or the empty index
// where it would go.
func (f *lazyShuffle) slot(p int) int {
	h := (uint64(p) * 0x9e3779b97f4a7c15) >> f.shift
	for f.keys[h] != 0 && f.keys[h] != p+1 {
		h = (h + 1) & f.mask
	}
	return int(h)
}

// at returns the index currently at position p.
func (f *lazyShuffle) at(p int) int {
	if h := f.slot(p); f.keys[h] != 0 {
		return f.vals[h]
	}
	return p
}

// next swaps position i with a uniform position j in [i, np) and returns
// what j held. Position i is never read again, so only j is stored.
func (f *lazyShuffle) next(rng *randutil.RNG) int {
	i := f.i
	j := i + rng.Intn(f.np-i)
	v := f.at(j)
	if j != i {
		h := f.slot(j)
		f.keys[h], f.vals[h] = j+1, f.at(i)
	}
	f.i++
	return v
}

// The zero-awareness pool. The selective rule promotes a page drawn
// uniformly from ALL zero-awareness pages, so every request must be able
// to reach every pool page of every shard, and a request that shows n
// results should pay for at most n of them. Each shard therefore keeps
// its pool as copy-on-write chunks of poolChunkLen slots behind a spine
// of chunk pointers (the posting-chunk design of searchidx), and publish
// hands readers the spine as it stands: O(1), however large the pool.
// A request sees the shards' published pools end to end as one index
// space [0, Σ sizes) and draws its promoted pages lazily from it
// (policy.Scratch.MergeBounded), mapping each drawn index to (shard,
// chunk, offset) — nothing is copied, concatenated or sampled ahead.
package serve

import "repro/internal/randutil"

// poolChunkLen is the most pool slots one chunk holds.
const poolChunkLen = 128

// poolChunk is one fixed-size run of a pool. Only the first
// min(poolChunkLen, n − start) entries of a view are meaningful; the
// rest belong to later births or are stale.
type poolChunk [poolChunkLen]int

// poolView is a shard's published pool: n birth sequences (dense table
// slots) in chunks. It is immutable once published.
type poolView struct {
	chunks []*poolChunk
	n      int
}

// at returns the pool's i-th slot.
func (v poolView) at(i int) int { return v.chunks[i/poolChunkLen][i%poolChunkLen] }

// cowPool is the applier's mutable pool, in swap-remove order. Chunks
// and the spine are shared with the published views until a removal
// needs to write into them; the rules that keep every view intact are:
//
//   - a birth writes only at index n, which no view reads: a view of an
//     n' > n pool would need a removal since, and every removal copies
//     the tail chunk it shrinks, so the chunk at n is never one a larger
//     view holds;
//   - a removal copies the chunk it writes into and the tail chunk when
//     either is shared, and the spine before replacing a shared spine's
//     pointer;
//   - the spine never shrinks (an emptied tail chunk stays for the next
//     births), so appending a chunk pointer never lands inside a view.
//
// A chunk or spine is shared once a freeze has happened since it was
// allocated.
type cowPool struct {
	spine     []*poolChunk
	born      []uint64 // freeze count at each chunk's allocation
	spineBorn uint64
	freezes   uint64
	n         int
	pos       map[int]int // seq -> index
}

// add appends seq to the pool.
func (p *cowPool) add(seq int) {
	if c := p.n / poolChunkLen; c == len(p.spine) {
		p.spine = append(p.spine, new(poolChunk))
		p.born = append(p.born, p.freezes)
	}
	p.spine[p.n/poolChunkLen][p.n%poolChunkLen] = seq
	p.pos[seq] = p.n
	p.n++
}

// remove swap-removes seq from the pool, if it is there.
func (p *cowPool) remove(seq int) {
	i, ok := p.pos[seq]
	if !ok {
		return
	}
	last := p.n - 1
	moved := p.own(last / poolChunkLen)[last%poolChunkLen]
	p.own(i / poolChunkLen)[i%poolChunkLen] = moved
	p.pos[moved] = i
	delete(p.pos, seq)
	p.n--
}

// own returns chunk c, first replacing it by a private copy if a view
// may hold it.
func (p *cowPool) own(c int) *poolChunk {
	if p.born[c] < p.freezes {
		if p.spineBorn < p.freezes {
			p.spine = append(make([]*poolChunk, 0, cap(p.spine)), p.spine...)
			p.spineBorn = p.freezes
		}
		cp := *p.spine[c]
		p.spine[c] = &cp
		p.born[c] = p.freezes
	}
	return p.spine[c]
}

// freeze returns the pool as an immutable view and marks every chunk
// and the spine shared.
func (p *cowPool) freeze() poolView {
	p.freezes++
	return poolView{chunks: p.spine[:(p.n+poolChunkLen-1)/poolChunkLen], n: p.n}
}

// globalPool is a request's policy.Source over the shards' published
// pools end to end: index i is the (i − Σ earlier sizes)-th slot of the
// first shard whose pool reaches it. With a handful of shards a linear
// walk of the sizes beats a prefix-sum search.
type globalPool struct {
	snaps []*snapshot
	n     int
}

func (g *globalPool) reset(snaps []*snapshot) {
	g.snaps, g.n = snaps, 0
	for _, sn := range snaps {
		g.n += sn.pool.n
	}
}

// Len returns the number of pool pages across all shards.
func (g *globalPool) Len() int { return g.n }

// At returns the birth sequence at global index i.
func (g *globalPool) At(i int) int {
	for _, sn := range g.snaps {
		if i < sn.pool.n {
			return sn.pool.at(i)
		}
		i -= sn.pool.n
	}
	panic("serve: global pool index out of range")
}

// splitCoinPool applies the uniform rule to the global pool: every page
// is pooled independently with probability r, the rest join det (in
// index order, while det holds fewer than n). Geometric skips jump from
// one pooled page to the next, so the cost is O(n + r·pool) with exactly
// the Bernoulli-per-page law.
func splitCoinPool(g *globalPool, r float64, n int, det, pool []int, rng *randutil.RNG) (detOut, poolOut []int) {
	for i := 0; i < g.n; {
		end := g.n
		if skip := rng.Geometric(r); skip < g.n-i {
			end = i + skip
		}
		for ; i < end && len(det) < n; i++ {
			det = append(det, g.At(i))
		}
		if i = end; i < g.n {
			pool = append(pool, g.At(i))
			i++
		}
	}
	return det, pool
}

package policy

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/randutil"
	"repro/internal/stats"
)

// boundedCase is one merge shape of the bounded-twin tests.
type boundedCase struct {
	nd, np, n, k int
	r            float64
}

// boundedCases covers the shapes where the first n positions of a merge
// depend on an exhausted list or a protected prefix: nd < n, np < n−k+1,
// k−1 ≥ nd, np = 0 and r ∈ {0, 1}, next to ordinary ones.
var boundedCases = []boundedCase{
	{nd: 12, np: 30, n: 8, k: 1, r: 0.3},  // ordinary: both lists outlast n
	{nd: 12, np: 30, n: 8, k: 3, r: 0.5},  // protected prefix
	{nd: 3, np: 30, n: 8, k: 1, r: 0.3},   // nd < n: det empties, pool drains
	{nd: 12, np: 3, n: 8, k: 2, r: 0.6},   // np < n−k+1: pool empties
	{nd: 2, np: 10, n: 6, k: 4, r: 0.4},   // k−1 ≥ nd: the prefix is all of det
	{nd: 2, np: 3, n: 10, k: 1, r: 0.5},   // n beyond both lists
	{nd: 10, np: 0, n: 6, k: 1, r: 0.5},   // empty pool
	{nd: 0, np: 9, n: 5, k: 1, r: 0.2},    // empty det
	{nd: 10, np: 20, n: 7, k: 1, r: 0},    // r = 0: pool only after det
	{nd: 10, np: 20, n: 7, k: 2, r: 1},    // r = 1: pool right after the prefix
	{nd: 1, np: 40, n: 12, k: 1, r: 0.05}, // det empties early, long drain
}

func (c boundedCase) lists() (det, pool Slice) {
	return seq(0, c.nd), seq(1000, c.np)
}

// twoSampleChi2 is the chi-square homogeneity statistic of two equal-size
// samples over shared cells: Σ (a−b)²/(a+b). Cells with fewer than 10
// observations in both samples together are pooled into one, keeping
// the approximation sound. It returns the statistic and its degrees of
// freedom (cells − 1); df 0 means one cell, where the samples agree.
func twoSampleChi2(a, b map[int]int) (float64, int) {
	keys := map[int]bool{}
	for x := range a {
		keys[x] = true
	}
	for x := range b {
		keys[x] = true
	}
	sorted := make([]int, 0, len(keys))
	for x := range keys {
		sorted = append(sorted, x)
	}
	sort.Ints(sorted)
	stat, cells := 0.0, 0
	var restA, restB int
	add := func(x, y int) {
		d := float64(x - y)
		stat += d * d / float64(x+y)
		cells++
	}
	for _, x := range sorted {
		if a[x]+b[x] < 10 {
			restA, restB = restA+a[x], restB+b[x]
			continue
		}
		add(a[x], b[x])
	}
	if restA+restB > 0 {
		add(restA, restB)
	}
	return stat, cells - 1
}

// TestMergeBoundedMatchesMerge is the bounded twin's exactness test: for
// every case and every position p ≤ n, the page at p and whether p was
// promoted are distributed as in Merge's first n, by a two-sample
// chi-square test at the 99.9% level (the statistic is exact for two
// samples, so the gate needs no slack).
func TestMergeBoundedMatchesMerge(t *testing.T) {
	const trials = 20000
	for ci, c := range boundedCases {
		det, pool := c.lists()
		inPool := map[int]bool{}
		for _, id := range pool {
			inPool[id] = true
		}
		want := min(c.n, c.nd+c.np)
		fullPage := make([]map[int]int, want)
		boundPage := make([]map[int]int, want)
		fullProm := make([]map[int]int, want)
		boundProm := make([]map[int]int, want)
		for p := range fullPage {
			fullPage[p], boundPage[p] = map[int]int{}, map[int]int{}
			fullProm[p], boundProm[p] = map[int]int{}, map[int]int{}
		}
		var sc Scratch
		full := randutil.New(uint64(ci)*2 + 1)
		bounded := randutil.New(uint64(ci)*2 + 2)
		var buf []int
		for trial := 0; trial < trials; trial++ {
			buf = Merge(det, pool, c.k, c.r, full, buf[:0])
			for p := 0; p < want; p++ {
				fullPage[p][buf[p]]++
				if inPool[buf[p]] {
					fullProm[p][1]++
				} else {
					fullProm[p][0]++
				}
			}
			got, tags := sc.MergeBounded(&det, &pool, c.n, c.k, c.r, bounded)
			if len(got) != want || len(tags) != want {
				t.Fatalf("case %+v: %d pages, %d tags, want %d", c, len(got), len(tags), want)
			}
			for p, id := range got {
				if tags[p] != inPool[id] {
					t.Fatalf("case %+v: position %d holds %d tagged fromPool=%v", c, p+1, id, tags[p])
				}
				boundPage[p][id]++
				if tags[p] {
					boundProm[p][1]++
				} else {
					boundProm[p][0]++
				}
			}
		}
		for p := 0; p < want; p++ {
			for _, m := range []struct {
				what string
				a, b map[int]int
			}{{"page", fullPage[p], boundPage[p]}, {"promoted", fullProm[p], boundProm[p]}} {
				stat, df := twoSampleChi2(m.a, m.b)
				if df == 0 {
					if fmt.Sprint(m.a) != fmt.Sprint(m.b) {
						t.Errorf("case %+v position %d: %s support %v vs %v", c, p+1, m.what, m.a, m.b)
					}
					continue
				}
				if crit := stats.ChiSquareCritical999(df); stat > crit {
					t.Errorf("case %+v position %d: %s chi2 = %.1f > %.1f (df %d)", c, p+1, m.what, stat, crit, df)
				}
			}
		}
	}
}

// countingSource is a Source that counts its reads.
type countingSource struct {
	n, base, reads int
}

func (s *countingSource) Len() int { return s.n }
func (s *countingSource) At(i int) int {
	s.reads++
	return s.base + i
}

// TestMergeBoundedReadsAtMostN pins the twin's cost: per call it reads at
// most n det entries and at most n−min(k−1, nd) pool entries — n−k+1
// once det covers the prefix — however large the pool, and never reads
// a pool index twice (the draws are without replacement).
func TestMergeBoundedReadsAtMostN(t *testing.T) {
	cases := append([]boundedCase{
		{nd: 50, np: 1 << 30, n: 10, k: 1, r: 0.5},
		{nd: 50, np: 1 << 30, n: 10, k: 4, r: 1},
		{nd: 0, np: 1 << 30, n: 10, k: 3, r: 0.1},
	}, boundedCases...)
	var sc Scratch
	rng := randutil.New(9)
	for _, c := range cases {
		det := &countingSource{n: c.nd}
		pool := &countingSource{n: c.np, base: -1 << 40}
		for trial := 0; trial < 200; trial++ {
			det.reads, pool.reads = 0, 0
			got, _ := sc.MergeBounded(det, pool, c.n, c.k, c.r, rng)
			if det.reads > c.n {
				t.Fatalf("case %+v: %d det reads, want <= n = %d", c, det.reads, c.n)
			}
			if limit := c.n - min(c.k-1, c.nd); pool.reads > limit {
				t.Fatalf("case %+v: %d pool reads, want <= %d", c, pool.reads, limit)
			}
			seen := map[int]bool{}
			for _, id := range got {
				if seen[id] {
					t.Fatalf("case %+v: page %d served twice in %v", c, id, got)
				}
				seen[id] = true
			}
		}
	}
}

// TestMergeBoundedDoesNotAllocate: a warmed Scratch serves bounded merges
// without allocating, the property the serving path's per-request
// budget relies on.
func TestMergeBoundedDoesNotAllocate(t *testing.T) {
	det, pool := seq(0, 1000), seq(5000, 50000)
	var sc Scratch
	rng := randutil.New(3)
	detSrc, poolSrc := Source(&det), Source(&pool)
	sc.MergeBounded(detSrc, poolSrc, 10, 1, 0.5, rng)
	if allocs := testing.AllocsPerRun(100, func() {
		sc.MergeBounded(detSrc, poolSrc, 10, 1, 0.5, rng)
	}); allocs != 0 {
		t.Fatalf("steady-state MergeBounded allocates %v times per run", allocs)
	}
}

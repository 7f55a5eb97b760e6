package serve

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"repro/internal/randutil"
)

// refQueryCandidates is the unpruned reference the block-max path must
// match exactly: retrieve every conjunctive match, load each live
// slot's stats, split off the pool-eligible pages under the unexplored
// rule, and sort the deterministic side fully by the serving order
// (popularity descending, older birth first).
func refQueryCandidates(c *Corpus, query string, n int, unexplored bool) (det, poolAll []int) {
	seqs := c.idx.Snapshot().RetrieveInto(nil, query)
	view := c.table.view()
	var cands []candRef
	for _, seq32 := range seqs {
		seq := int(seq32)
		slot := slotAt(view, seq)
		if slot == nil {
			continue
		}
		m := slot.meta.Load()
		if !liveMeta(m) {
			continue
		}
		if unexplored && m&slotAware == 0 {
			poolAll = append(poolAll, seq)
			continue
		}
		cands = append(cands, candRef{pop: math.Float64frombits(slot.pop.Load()), seq: seq})
	}
	sort.Slice(cands, func(i, j int) bool { return candLess(cands[i], cands[j]) })
	for i := 0; i < len(cands) && i < n; i++ {
		det = append(det, cands[i].seq)
	}
	return det, poolAll
}

// prunedQueryCandidates drives the production assembly path directly,
// returning the deterministic top-n and the pre-reservoir pool
// candidate set it produced.
func prunedQueryCandidates(c *Corpus, query string, n int) (det, poolAll []int) {
	rs := c.scratch.Get().(*reqScratch)
	defer c.scratch.Put(rs)
	rng := randutil.New(1)
	det, _ = c.queryCandidates(c.arms[0], 0.1, query, n, nil, nil, rng, rs)
	return det, append([]int(nil), rs.poolAll...)
}

func assertSameInts(t *testing.T, got, want []int, context string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d ids %v, want %d ids %v", context, len(got), got, len(want), want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: mismatch at %d: got %v, want %v", context, i, got, want)
		}
	}
}

// TestPrunedQueryMatchesFullScanProperty is the soundness gate for
// block-max pruning: over randomized corpora, click histories, removals
// and queries, the pruned top-K assembly must equal the full-scan
// reference id for id — deterministic side AND pool-eligible side.
// Every corpus indexes more than 256 distinct terms (each page carries
// a unique term), so the property covers many short posting lists
// beside long ones, bounds raised by clicks through Index.Raise, bounds
// recomputed exactly when a removal deletes from a block, and terms
// whose last document was removed.
func TestPrunedQueryMatchesFullScanProperty(t *testing.T) {
	rng := randutil.New(20250808)
	for trial := 0; trial < 12; trial++ {
		unexplored := trial%2 == 0
		rule := "deterministic"
		if unexplored {
			rule = "selective"
		}
		nDocs := 300 + rng.Intn(400)
		topics := 6 + rng.Intn(10)
		c, err := NewCorpus(Config{
			Shards: 1 + rng.Intn(4),
			Seed:   rng.Uint64(),
			Arms:   []Arm{{Name: "t", Policy: pspec(rule, 4, 0.2, 0), Weight: 1}},
		})
		if err != nil {
			t.Fatal(err)
		}
		c.qcache = nil
		text := func(i int) string {
			return fmt.Sprintf("common t%d t%d page%d", i%topics, (i/3)%topics, i)
		}
		for i := 0; i < nDocs; i++ {
			pop := 0.0
			if rng.Bernoulli(0.7) {
				pop = 1 + float64(rng.Intn(50))
			}
			if err := c.Add(i, text(i), pop); err != nil {
				t.Fatal(err)
			}
		}
		// Interleave click history and removals so the scan races
		// through every bound regime: exact bounds computed at insert,
		// bounds raised monotonically by clicks (promotions flip pool
		// membership), and bounds recomputed by removals.
		removed := make(map[int]bool)
		for round := 0; round < 4; round++ {
			events := make([]Event, 0, 64)
			for k := 0; k < 48; k++ {
				id := rng.Intn(nDocs)
				if removed[id] {
					continue
				}
				events = append(events, Event{
					Page: id, Slot: 1 + rng.Intn(10),
					Impressions: 1, Clicks: rng.Intn(3),
				})
			}
			if err := c.Feedback(events); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 8; k++ {
				id := rng.Intn(nDocs)
				if !removed[id] && c.Remove(id) {
					removed[id] = true
				}
			}
			c.Sync()

			queries := []string{
				"common",
				fmt.Sprintf("t%d", rng.Intn(topics)),
				fmt.Sprintf("t%d common", rng.Intn(topics)),
				fmt.Sprintf("page%d", rng.Intn(nDocs)),
				"common missingterm",
			}
			for _, q := range queries {
				for _, n := range []int{1, 4, 17, nDocs} {
					wantDet, wantPool := refQueryCandidates(c, q, n, unexplored)
					gotDet, gotPool := prunedQueryCandidates(c, q, n)
					ctx := fmt.Sprintf("trial %d round %d rule %s q=%q n=%d", trial, round, rule, q, n)
					assertSameInts(t, gotDet, wantDet, ctx+" det")
					assertSameInts(t, gotPool, wantPool, ctx+" pool")
				}
			}
		}
		c.Close()
	}
}

// TestConcurrentBoundRaisesDuringRank hammers the pruned rank path
// while click feedback concurrently raises block bounds through
// Index.Raise and late adds append to posting lists (growing their
// bounds arrays). Run under -race this exercises bound raises and list
// growth racing readers of the published term table and bounds arrays;
// the assertions check every response stays well-formed, while
// quiescent checks pin final exactness.
func TestConcurrentBoundRaisesDuringRank(t *testing.T) {
	const (
		nDocs   = 800
		readers = 4
		rounds  = 300
	)
	c, err := NewCorpus(Config{
		Shards: 4, Seed: 7,
		Arms: []Arm{{Name: "t", Policy: pspec("selective", 8, 0.3, 0), Weight: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.qcache = nil
	text := func(i int) string { return fmt.Sprintf("common t%d page%d", i%7, i) }
	for i := 0; i < nDocs; i++ {
		pop := 0.0
		if i%3 != 0 {
			pop = float64(1 + i%40)
		}
		if err := c.Add(i, text(i), pop); err != nil {
			t.Fatal(err)
		}
	}
	c.Sync()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // clicker: monotone bound raises + pool promotions
		defer wg.Done()
		rng := randutil.New(11)
		ev := make([]Event, 16)
		for r := 0; r < rounds; r++ {
			for i := range ev {
				ev[i] = Event{Page: rng.Intn(nDocs), Slot: 1 + i%10, Impressions: 1, Clicks: 1}
			}
			if err := c.Feedback(ev); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // adder: posting appends, bounds growth
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			id := nDocs + i
			if err := c.Add(id, text(id), float64(i%25)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	queries := []string{"common", "t3", "common t5"}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				res, err := c.Rank(queries[(g+r)%len(queries)], 10)
				if err != nil {
					t.Error(err)
					return
				}
				if len(res) > 10 {
					t.Errorf("rank returned %d results", len(res))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	c.Sync()

	// Quiescent: the pruned assembly must again match the reference
	// exactly, bounds having been raised only by the concurrent clicks
	// above.
	for _, q := range queries {
		wantDet, wantPool := refQueryCandidates(c, q, 10, true)
		gotDet, gotPool := prunedQueryCandidates(c, q, 10)
		assertSameInts(t, gotDet, wantDet, "quiescent det "+q)
		assertSameInts(t, gotPool, wantPool, "quiescent pool "+q)
	}
}

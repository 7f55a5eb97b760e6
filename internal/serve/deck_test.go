package serve

import (
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/randutil"
)

// deckGen generates pages shaped like the benchmark's deck (bench/gen.go)
// at scale n: page i has one unique token plus 18 distinct terms from a
// 96-term head vocabulary, Zipf popularity n/(i+1), and every 50th page
// starts in the zero-awareness pool.
type deckGen struct {
	rng  *randutil.RNG
	head []int
	n    int
	sb   strings.Builder
	ids  []int // page i's id when set, else i
}

// id returns page i's id.
func (d *deckGen) id(i int) int {
	if d.ids != nil {
		return d.ids[i]
	}
	return i
}

func newDeckGen(n int) *deckGen {
	head := make([]int, 96)
	for i := range head {
		head[i] = i
	}
	return &deckGen{rng: randutil.New(1), head: head, n: n}
}

// page returns page i's text and popularity; pages must be drawn in
// ascending order.
func (d *deckGen) page(i int) (string, float64) {
	d.sb.Reset()
	d.sb.WriteString("u")
	d.sb.WriteString(strconv.Itoa(i))
	for j := 0; j < 18; j++ {
		k := j + d.rng.Intn(len(d.head)-j)
		d.head[j], d.head[k] = d.head[k], d.head[j]
		d.sb.WriteString(" h")
		d.sb.WriteString(strconv.Itoa(100 + d.head[j])[1:])
	}
	pop := float64(d.n) / float64(i+1)
	if i%50 == 49 {
		pop = 0
	}
	return d.sb.String(), pop
}

// addDeck adds pages [from, to) of d to c.
func addDeck(tb testing.TB, c *Corpus, d *deckGen, from, to int) {
	for i := from; i < to; i++ {
		text, pop := d.page(i)
		if err := c.Add(d.id(i), text, pop); err != nil {
			tb.Fatal(err)
		}
	}
}

// liveHeap is HeapAlloc after a double collection: the first pass runs
// finalizers and empties pools, the second frees what they held.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestDeckHeapPerPage pins what a page costs to keep: a 20,000-page
// deck, in memory over 8 shards, may hold at most 780 bytes of heap per
// page once built. The search index keeps no page text, and both id →
// birth maps (the corpus's byID, each applier's seqOf) are pointer-free
// map[int]int.
func TestDeckHeapPerPage(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("builds a 20,000-page corpus; the race detector's shadow memory skews the heap")
	}
	const pages = 20000
	before := liveHeap()
	c := newTestCorpus(t, Config{Shards: 8, Seed: 1})
	addDeck(t, c, newDeckGen(pages), 0, pages)
	c.Sync()
	perPage := float64(liveHeap()-before) / pages
	runtime.KeepAlive(c)
	t.Logf("%.0f bytes of heap per page", perPage)
	if perPage > 780 {
		t.Fatalf("the deck holds %.0f bytes of heap per page, want at most 780", perPage)
	}
}

// TestChurnLeavesNoByIDEntries: add→remove cycles of fresh ids leave
// byID and the appliers' seqOf maps holding exactly the live pages — a
// removed id keeps no entry — and a removed id can be added again.
func TestChurnLeavesNoByIDEntries(t *testing.T) {
	c := newTestCorpus(t, Config{Shards: 4, Seed: 1})
	for id := 0; id < 20; id++ {
		if err := c.Add(id, "base page", 1); err != nil {
			t.Fatal(err)
		}
	}
	for id := 1000; id < 1500; id++ {
		if err := c.Add(id, "churn page", float64(id%2)); err != nil {
			t.Fatal(err)
		}
		if !c.Remove(id) {
			t.Fatalf("remove %d failed", id)
		}
	}
	if err := c.Add(1000, "churn page again", 2); err != nil {
		t.Fatal(err)
	}
	c.Sync()
	pages := c.Stats().Pages
	applied := 0
	for _, sh := range c.shards {
		applied += len(sh.seqOf)
	}
	if pages != 21 || len(c.byID) != pages || applied != pages {
		t.Fatalf("%d live pages, byID holds %d, seqOf maps %d", pages, len(c.byID), applied)
	}
	if s, ok := c.Page(1000); !ok || s.Popularity != 2 {
		t.Fatalf("re-added page 1000 reads %+v, %v", s, ok)
	}
}

// BenchmarkCorpusAdd times one page's birth through the whole path —
// Corpus.Add's index insert and the shard applier's slot fill, treap
// insert and first bound raise — on top of an untimed deck of n pages.
// The closing Sync is inside the timer, so the applier's share counts.
// Deck ids 0, 1, 2, ... round-robin over the shards, so births arrive
// in order and every posting insert is an append. With ids=shuffled
// they are drawn through a fixed permutation of an id space four times
// wider: the shards' births interleave as a replica's shard streams do,
// and most inserts land mid-list. CI gates its ratio to n=20k.
func BenchmarkCorpusAdd(b *testing.B) {
	for _, bc := range []struct {
		name     string
		shuffled bool
	}{{"n=20k", false}, {"n=20k,ids=shuffled", true}} {
		b.Run(bc.name, func(b *testing.B) {
			n := 20000
			if testing.Short() {
				n /= 10
			}
			c, err := NewCorpus(Config{Shards: 8, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(c.Close)
			d := newDeckGen(n)
			if bc.shuffled {
				d.ids = randutil.New(7).Perm(4 * (n + b.N))
			}
			// As in BenchmarkIndexAdd: collect the fill's garbage before
			// its last thousand adds, so the timed adds neither share the
			// CPU with a cycle the fill left running nor start on cold
			// lists.
			addDeck(b, c, d, 0, n-1000)
			c.Sync()
			runtime.GC()
			addDeck(b, c, d, n-1000, n)
			c.Sync()
			ids := make([]int, b.N)
			texts := make([]string, b.N)
			pops := make([]float64, b.N)
			for i := range texts {
				ids[i] = d.id(n + i)
				texts[i], pops[i] = d.page(n + i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := range texts {
				if err := c.Add(ids[i], texts[i], pops[i]); err != nil {
					b.Fatal(err)
				}
			}
			c.Sync()
		})
	}
}

package searchidx

import (
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/randutil"
)

// deckText is the text of document i of a corpus shaped like the
// benchmark's deck (bench/gen.go): one unique token plus 18 distinct
// terms drawn from a 96-term head vocabulary.
func deckText(rng *randutil.RNG, head []int, i int) string {
	var sb strings.Builder
	sb.WriteString("u")
	sb.WriteString(strconv.Itoa(i))
	for j := 0; j < 18; j++ {
		k := j + rng.Intn(len(head)-j)
		head[j], head[k] = head[k], head[j]
		sb.WriteString(" h")
		sb.WriteString(strconv.Itoa(100 + head[j])[1:])
	}
	return sb.String()
}

// deckAdder feeds deck-shaped documents with ascending ids to an index.
type deckAdder struct {
	ix   *Index
	rng  *randutil.RNG
	head []int
	next int
}

func newDeckAdder() *deckAdder {
	head := make([]int, 96)
	for i := range head {
		head[i] = i
	}
	return &deckAdder{ix: NewIndex(), rng: randutil.New(1), head: head}
}

// texts generates the next n documents' texts without adding them, so a
// measurement can count Add alone.
func (d *deckAdder) texts(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = deckText(d.rng, d.head, d.next+i)
	}
	return out
}

func (d *deckAdder) addTexts(tb testing.TB, texts []string) {
	for _, text := range texts {
		if err := d.ix.Add(Document{ID: d.next, Text: text}); err != nil {
			tb.Fatal(err)
		}
		d.next++
	}
}

// add generates and adds the next n documents, one at a time.
func (d *deckAdder) add(tb testing.TB, n int) {
	for ; n > 0; n-- {
		d.addTexts(tb, []string{deckText(d.rng, d.head, d.next)})
	}
}

// TestIndexAddAllocatesO1 pins Add's cost to the document, not the
// corpus, by a count rather than a clock: the bytes allocated by 1,000
// adds on top of 50,000 documents stay within 1.5x of the same adds on
// top of 2,000. (A write path that copies the dictionary — any periodic
// fold of an overlay into a base map — fails this.) The 96 head lists
// are all about the same length, so they all outgrow their arrays within
// the same couple of thousand adds; each size is therefore measured over
// four consecutive batches and the cheapest kept — the steady cost
// between growth steps, which is the part that must not depend on size.
func TestIndexAddAllocatesO1(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("builds a 54,000-document index; under -race sync.Pool drops items, so the pooled scratch is allocated per add")
	}
	const batch = 1000
	bytesFor := func(base int) uint64 {
		d := newDeckAdder()
		d.add(t, base)
		least := ^uint64(0)
		for w := 0; w < 4; w++ {
			texts := d.texts(batch)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			d.addTexts(t, texts)
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	small, large := bytesFor(2000), bytesFor(50000)
	t.Logf("bytes per add: %d on 2,000 documents, %d on 50,000 (x%.2f)",
		small/batch, large/batch, float64(large)/float64(small))
	if float64(large) > 1.5*float64(small) {
		t.Fatalf("1,000 adds allocate %d bytes on 50,000 documents but %d on 2,000: Add is not O(document)", large, small)
	}
}

// strideOrder returns n document ids in the order a replica indexes
// them: streams interleaved stride streams (stream s's k-th id is
// k*streams+s), the last of them lag adds behind the rest, so each of
// its ids lands mid-list, a few dozen entries from the tail of every
// list it joins.
func strideOrder(n, streams, lag int) []int {
	order := make([]int, 0, n+streams*lag)
	for k := 0; len(order) < n; k++ {
		for s := 0; s < streams-1; s++ {
			order = append(order, k*streams+s)
		}
		if k >= lag {
			order = append(order, (k-lag)*streams+streams-1)
		}
	}
	return order[:n]
}

// TestMidListInsertLoadsO1 pins a mid-list insert's cost to the blocks
// it shifts, not the list, by a count rather than a clock: eight stride
// streams, one lagging 64 adds behind, go through Add with a counting
// popularity source, and the loads per insert over the last 1,000 adds
// of a 20,000-document index stay within 1.5x of those of a 2,000-
// document one. (Recomputing a rebuilt list's bounds from every entry
// costs ~13x here.)
func TestMidListInsertLoadsO1(t *testing.T) {
	const batch = 1000
	loadsPerInsert := func(n int) float64 {
		d := newDeckAdder()
		loads := 0
		d.ix.SetPopFunc(func(id uint32) float64 {
			loads++
			return float64(id % 97)
		})
		order := strideOrder(n, 8, 64)
		for i, id := range order {
			if i == n-batch {
				loads = 0
			}
			if err := d.ix.Add(Document{ID: id, Text: deckText(d.rng, d.head, id)}); err != nil {
				t.Fatal(err)
			}
		}
		return float64(loads) / batch
	}
	small, large := loadsPerInsert(2000), loadsPerInsert(20000)
	t.Logf("popularity loads per insert: %.1f on 2,000 documents, %.1f on 20,000 (x%.2f)", small, large, large/small)
	if large > 1.5*small {
		t.Fatalf("an insert loads %.1f popularities on 20,000 documents but %.1f on 2,000: mid-list inserts are not O(blocks)", large, small)
	}
}

// BenchmarkIndexAdd times one Add of a deck-shaped document on top of a
// pre-filled index (the fill is untimed). CI gates n=200k at no more
// than twice n=20k: the write path is linear in the corpus.
func BenchmarkIndexAdd(b *testing.B) {
	for _, bc := range []struct {
		name string
		n    int
	}{{"n=20k", 20000}, {"n=200k", 200000}} {
		b.Run(bc.name, func(b *testing.B) {
			n := bc.n
			if testing.Short() {
				n /= 10
			}
			d := newDeckAdder()
			// Collect the fill's garbage before its last thousand adds:
			// a short timed run then neither shares the CPU with a cycle
			// the fill left running nor starts on lists the collector
			// has just pushed out of the cache.
			d.add(b, n-1000)
			runtime.GC()
			d.add(b, 1000)
			texts := d.texts(b.N)
			b.ReportAllocs()
			b.ResetTimer()
			d.addTexts(b, texts)
		})
	}
}

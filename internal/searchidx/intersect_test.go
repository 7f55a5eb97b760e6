package searchidx

import (
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/randutil"
)

// naiveIntersect is the reference pairwise merge the galloping
// implementation replaced: intersect lists two at a time with a linear
// two-pointer scan.
func naiveIntersect(lists [][]uint32) []uint32 {
	if len(lists) == 0 {
		return nil
	}
	out := append([]uint32(nil), lists[0]...)
	for _, l := range lists[1:] {
		var next []uint32
		i, j := 0, 0
		for i < len(out) && j < len(l) {
			switch {
			case out[i] == l[j]:
				next = append(next, out[i])
				i++
				j++
			case out[i] < l[j]:
				i++
			default:
				j++
			}
		}
		out = next
	}
	return out
}

// randomSortedList draws a sorted duplicate-free posting list whose ids
// fall in [lo, hi).
func randomSortedList(rng *randutil.RNG, n int, lo, hi uint32) []uint32 {
	seen := map[uint32]bool{}
	for len(seen) < n && len(seen) < int(hi-lo) {
		seen[lo+uint32(rng.Intn(int(hi-lo)))] = true
	}
	out := make([]uint32, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func runIntersect(lists [][]uint32) []uint32 {
	// intersectLists requires lists[0] to exist; callers (RetrieveInto)
	// never pass zero lists and treat any empty list as an early exit.
	for _, l := range lists {
		if len(l) == 0 {
			return nil
		}
	}
	// Chunk sizes vary with the list, as splits leave them, so cursors
	// cross part-full chunks.
	ps := make([]*posting, len(lists))
	for i, l := range lists {
		ps[i] = chunked(l, 1+(len(l)+i)%8)
	}
	return intersectLists(nil, ps, new(queryScratch).resetCursors(ps))
}

// chunked returns a posting list holding ids in chunks of size (the
// tail holds the rest).
func chunked(ids []uint32, size int) *posting {
	p := &posting{n: len(ids)}
	for len(ids) > size {
		p.spine = append(p.spine, chunk{ids: ids[:size:size]})
		ids = ids[size:]
	}
	p.tail.ids = ids
	return p
}

func assertSameIDs(t *testing.T, got, want []uint32, context string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d ids, want %d (got %v, want %v)", context, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: mismatch at %d: got %v, want %v", context, i, got, want)
		}
	}
}

// TestGallopingMatchesNaiveProperty drives randomized posting lists —
// varying counts, sizes, and overlap regimes, including empty, disjoint
// and identical lists — through both the galloping k-way intersection
// and the naive pairwise reference, asserting identical output.
func TestGallopingMatchesNaiveProperty(t *testing.T) {
	rng := randutil.New(20250728)
	for trial := 0; trial < 400; trial++ {
		k := 1 + rng.Intn(4)
		lists := make([][]uint32, k)
		regime := rng.Intn(4)
		for i := range lists {
			switch regime {
			case 0: // independent random lists over a shared range
				lists[i] = randomSortedList(rng, rng.Intn(60), 0, 200)
			case 1: // disjoint ranges: intersection must be empty for k>1
				lo := uint32(i * 1000)
				lists[i] = randomSortedList(rng, 1+rng.Intn(30), lo, lo+500)
			case 2: // fully overlapping: identical lists
				if i == 0 {
					lists[i] = randomSortedList(rng, 1+rng.Intn(50), 0, 5000)
				} else {
					lists[i] = lists[0]
				}
			default: // occasional empty list among dense ones
				if i == 0 && rng.Bernoulli(0.5) {
					lists[i] = nil
				} else {
					lists[i] = randomSortedList(rng, rng.Intn(80), 0, 120)
				}
			}
		}
		got := runIntersect(lists)
		want := naiveIntersect(lists)
		if len(want) == 0 {
			want = nil
		}
		assertSameIDs(t, got, want, fmt.Sprintf("trial %d regime %d", trial, regime))

		// Order independence: the driver list need not be the rarest.
		if len(lists) > 1 {
			rev := make([][]uint32, len(lists))
			for i := range lists {
				rev[i] = lists[len(lists)-1-i]
			}
			assertSameIDs(t, runIntersect(rev), want, fmt.Sprintf("trial %d reversed", trial))
		}
	}
}

// TestGallopGalloping pins the gallop helper's contract on crafted lists.
func TestGallopGalloping(t *testing.T) {
	list := []uint32{2, 4, 4e3, 4e3 + 1, 4e3 + 2, 1e6}
	cases := []struct {
		lo     int
		target uint32
		want   int
	}{
		{0, 0, 0},
		{0, 2, 0},
		{0, 3, 1},
		{0, 4, 1},
		{0, 5, 2},
		{2, 4000, 2},
		{2, 4002, 4},
		{0, 1e6, 5},
		{0, 1e6 + 1, 6},
		{6, 7, 6},
	}
	for _, c := range cases {
		if got := gallop(list, c.lo, c.target); got != c.want {
			t.Errorf("gallop(lo=%d, target=%d) = %d, want %d", c.lo, c.target, got, c.want)
		}
	}
}

// TestConcurrentRetrieveDuringMutation hammers lock-free retrieval from
// several goroutines while a writer continuously deletes and re-adds
// documents, adds new ones, and weaves late ones into the middle of
// lists, splitting full chunks under RetrieveInto and RetrievePruned
// readers. Run under -race this exercises the term cells, table resizes,
// the epoch, the shared spines and the tails grown in place; the
// assertions check every retrieval is a well-formed sorted id set drawn
// from the known universe, and the freshness rule: a reader that loads
// the epoch and then the lists sees every document whose Add had
// returned before the epoch load (the writer stores cells, then the
// epoch).
func TestConcurrentRetrieveDuringMutation(t *testing.T) {
	const (
		docs    = 300
		readers = 4
		rounds  = 400
	)
	ix := NewIndex()
	text := func(i int) string {
		s := "alpha shared"
		if i%2 == 0 {
			s += " even"
		}
		if i%3 == 0 {
			s += " third"
		}
		if i >= docs {
			// Four more terms no other document has: the table grows, and
			// is resized under the readers, every few dozen rounds.
			s += fmt.Sprintf(" fresh a%d b%d c%d d%d", i, i, i, i)
		}
		return fmt.Sprintf("%s doc%d", s, i)
	}
	for i := 0; i < docs; i++ {
		if err := ix.Add(Document{ID: i, Text: text(i)}); err != nil {
			t.Fatal(err)
		}
	}
	slotsBefore := ix.terms.slots.Load()
	// Round r also adds woven document wovenBase+weave[r]: four stride
	// streams, one lagging 64 rounds, so one in four lands a chunk or two
	// short of the tail of "woven" and "alpha", where full chunks pass
	// documents on or split.
	wovenBase := docs + rounds
	weave := strideOrder(rounds, 4, 64)
	universe := wovenBase + slices.Max(weave) + 1

	// fresh counts the never-deleted documents docs, docs+1, ... whose
	// Add has returned.
	var fresh atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := randutil.New(7)
		for r := 0; r < rounds; r++ {
			id := rng.Intn(docs)
			if !ix.Delete(id) {
				t.Errorf("doc %d missing at delete", id)
				return
			}
			if err := ix.Add(Document{ID: id, Text: text(id)}); err != nil {
				t.Error(err)
				return
			}
			if err := ix.Add(Document{ID: wovenBase + weave[r], Text: "alpha woven"}); err != nil {
				t.Error(err)
				return
			}
			if err := ix.Add(Document{ID: docs + r, Text: text(docs + r)}); err != nil {
				t.Error(err)
				return
			}
			fresh.Store(int64(r + 1))
		}
	}()
	queries := []string{"alpha shared", "alpha even", "shared third even", "alpha missingterm"}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var lastEpoch uint64
			var buf []uint32
			for r := 0; r < rounds; r++ {
				returned := int(fresh.Load())
				snap := ix.Snapshot()
				if e := snap.Epoch(); e < lastEpoch {
					t.Errorf("epoch went backwards: %d then %d", lastEpoch, e)
					return
				} else {
					lastEpoch = e
				}
				// The writer's mutations are numbered: the initial adds,
				// then four a round, the round's fresh Add last. So the
				// epoch alone also says which fresh and woven docs must be
				// visible.
				if floor := uint64(docs + 4*returned); snap.Epoch() < floor {
					t.Errorf("epoch %d after %d mutations had returned", snap.Epoch(), floor)
					return
				}
				returned = int(snap.Epoch()-docs) / 4
				buf = snap.RetrieveInto(buf[:0], "fresh alpha doc"+strconv.Itoa(docs+returned-1))
				if returned > 0 && (len(buf) != 1 || int(buf[0]) != docs+returned-1) {
					t.Errorf("doc %d was added at or before epoch %d, but its own terms retrieve %v", docs+returned-1, snap.Epoch(), buf)
					return
				}
				buf = snap.RetrieveInto(buf[:0], "fresh shared")
				if len(buf) < returned {
					t.Errorf("%d fresh docs were added at or before epoch %d, only %d retrieved", returned, snap.Epoch(), len(buf))
					return
				}
				for i := 0; i < returned; i++ {
					if int(buf[i]) != docs+i {
						t.Errorf("fresh doc %d missing from %v", docs+i, buf[:returned])
						return
					}
				}
				// Every woven doc of the returned rounds streams out of a
				// pruned scan, in order, however the chunks were split; a
				// skipping scan is checked for order alone.
				var woven []uint32
				snap.RetrievePruned("woven alpha", nil, func(ids []uint32) { woven = append(woven, ids...) })
				for _, w := range weave[:returned] {
					if _, in := slices.BinarySearch(woven, uint32(wovenBase+w)); !in {
						t.Errorf("woven doc %d was added at or before epoch %d, but the pruned scan streams %v", wovenBase+w, snap.Epoch(), woven)
						return
					}
				}
				odd := false
				var skipped []uint32
				snap.RetrievePruned("alpha woven", func(float64) bool { odd = !odd; return odd }, func(ids []uint32) { skipped = append(skipped, ids...) })
				for _, ids := range [][]uint32{woven, skipped} {
					if !slices.IsSorted(ids) || len(slices.Compact(slices.Clone(ids))) != len(ids) {
						t.Errorf("pruned scan ids not strictly ascending: %v", ids)
						return
					}
				}
				ids := ix.Retrieve(queries[(g+r)%len(queries)])
				for i, id := range ids {
					if id < 0 || id >= universe {
						t.Errorf("retrieved unknown doc %d", id)
						return
					}
					if i > 0 && ids[i-1] >= id {
						t.Errorf("ids not strictly ascending: %v", ids)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if ix.terms.slots.Load() == slotsBefore {
		t.Fatal("the term table was never resized while readers ran")
	}

	// Quiescent again: full-universe queries must see every doc.
	if got := len(ix.Retrieve("alpha shared")); got != docs+rounds {
		t.Fatalf("after churn, alpha shared matched %d docs, want %d", got, docs+rounds)
	}
	if got := len(ix.Retrieve("woven")); got != rounds {
		t.Fatalf("after churn, woven matched %d docs, want %d", got, rounds)
	}
	woven, split := ix.postings("woven"), false
	for ci := range woven.spine {
		split = split || len(woven.spine[ci].ids) < BlockStride
	}
	if !split {
		t.Fatal("no woven chunk was ever split")
	}
	if ix.Len() != docs+2*rounds {
		t.Fatalf("Len = %d after churn, want %d", ix.Len(), docs+2*rounds)
	}
}

package searchidx

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/randutil"
)

// naiveIntersect is the reference: intersect lists two at a time with a
// linear two-pointer scan.
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
	slices.Sort(out)
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
	// cross part-full chunks, and one list's chunk edges fall inside the
	// runs of another's.
	ps := make([]*posting, len(lists))
	for i, l := range lists {
		size := 1 + (len(l)+i)%8
		if len(l) > 200 {
			size = BlockStride/2 + (len(l)+i)%(BlockStride/2)
		}
		ps[i] = chunked(l, size)
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

// kernelsOf reports which kernels intersecting lists with lists[0]
// driving reaches, from the lists' lengths alone: a later list at most
// mergeRatio times as long as the driver is merged, a longer one
// galloped. An empty list, or a lone one, reaches neither.
func kernelsOf(lens []int) (merged, galloped bool) {
	if len(lens) < 2 || slices.Contains(lens, 0) {
		return false, false
	}
	for _, n := range lens[1:] {
		if n <= mergeRatio*lens[0] {
			merged = true
		} else {
			galloped = true
		}
	}
	return merged, galloped
}

// intersectSeeds are the seeds of the intersection properties; each must
// reach both kernels.
var intersectSeeds = []uint64{20250728, 1, 2}

// regimeLists draws the posting lists of one trial of regime 0..6. The
// first four keep lists under 80 ids and alike in size; the last three
// span many chunks: dense lists alike in size, lists skewed past
// mergeRatio, and three or four lists mixing the two.
func regimeLists(rng *randutil.RNG, regime int) [][]uint32 {
	k := 1 + rng.Intn(4)
	if regime == 6 {
		k = 3 + rng.Intn(2)
	}
	lists := make([][]uint32, k)
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
		case 3: // occasional empty list among dense ones
			if i == 0 && rng.Bernoulli(0.5) {
				lists[i] = nil
			} else {
				lists[i] = randomSortedList(rng, rng.Intn(80), 0, 120)
			}
		case 4: // dense, alike in size, many chunks: the merge
			lists[i] = randomSortedList(rng, 300+rng.Intn(2700), 0, 4000)
		case 5: // a short driver against lists past mergeRatio: the gallop
			if i == 0 {
				lists[i] = randomSortedList(rng, 1+rng.Intn(40), 0, 4000)
			} else {
				lists[i] = randomSortedList(rng, (mergeRatio+1)*len(lists[0])+rng.Intn(2000), 0, 4000)
			}
		default: // a driver, a list alike in size, a skewed one, and either
			n0 := 50 + rng.Intn(150)
			n := n0 + rng.Intn(3*n0)
			if i == 0 {
				n = n0
			} else if i == 2 || (i == 3 && rng.Bernoulli(0.5)) {
				n = (mergeRatio+1)*n0 + rng.Intn(1000)
			}
			lists[i] = randomSortedList(rng, n, 0, 3000)
		}
	}
	return lists
}

func listLens(lists [][]uint32) []int {
	lens := make([]int, len(lists))
	for i, l := range lists {
		lens[i] = len(l)
	}
	return lens
}

// TestIntersectMatchesNaiveProperty drives randomized posting lists —
// varying counts, sizes, and overlap regimes, including empty, disjoint
// and identical lists, dense lists of many chunks and lists skewed past
// the merge/gallop switch point — through the k-way intersection and the
// naive pairwise reference, asserting identical output, and again with
// the lists reversed, so that a longer list drives.
func TestIntersectMatchesNaiveProperty(t *testing.T) {
	for _, seed := range intersectSeeds {
		rng := randutil.New(seed)
		var merged, galloped bool
		for trial := 0; trial < 400; trial++ {
			regime := rng.Intn(7)
			lists := regimeLists(rng, regime)
			got := runIntersect(lists)
			want := naiveIntersect(lists)
			if len(want) == 0 {
				want = nil
			}
			assertSameIDs(t, got, want, fmt.Sprintf("seed %d trial %d regime %d", seed, trial, regime))
			m, g := kernelsOf(listLens(lists))
			merged, galloped = merged || m, galloped || g

			// Order independence: the driver list need not be the rarest.
			if len(lists) > 1 {
				rev := slices.Clone(lists)
				slices.Reverse(rev)
				assertSameIDs(t, runIntersect(rev), want, fmt.Sprintf("seed %d trial %d reversed", seed, trial))
				m, g := kernelsOf(listLens(rev))
				merged, galloped = merged || m, galloped || g
			}
		}
		if !merged || !galloped {
			t.Fatalf("seed %d: merged %v, galloped %v: every seed must reach both kernels", seed, merged, galloped)
		}
	}
}

// TestRetrievePrunedSkipsMatchNaiveProperty indexes the multi-chunk
// regimes' lists, in id order or shuffled so that inserts split chunks,
// and streams their conjunction through RetrievePruned with a random
// skip decision per driving chunk. The ids emitted must be the full
// intersection minus the ids of the skipped chunks, in ascending order:
// the kernel re-enters every other list correctly after a skip, however
// far the skip moved the driver ahead of its cursor.
func TestRetrievePrunedSkipsMatchNaiveProperty(t *testing.T) {
	for _, seed := range intersectSeeds {
		rng := randutil.New(seed)
		var merged, galloped bool
		for trial := 0; trial < 40; trial++ {
			regime := 4 + rng.Intn(3)
			lists := regimeLists(rng, regime)
			ix := NewIndex()
			terms := map[uint32][]string{}
			query := make([]string, len(lists))
			for i, l := range lists {
				query[i] = "t" + strconv.Itoa(i)
				for _, id := range l {
					terms[id] = append(terms[id], query[i])
				}
			}
			ids := slices.Sorted(maps.Keys(terms))
			if trial%2 == 1 {
				rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			}
			for _, id := range ids {
				if err := ix.Add(Document{ID: int(id), Text: strings.Join(terms[id], " ")}); err != nil {
					t.Fatal(err)
				}
			}
			snap := ix.Snapshot()
			ps, _ := snap.gatherLists(new(queryScratch), query)
			lens := make([]int, len(ps))
			for i, p := range ps {
				lens[i] = p.n
			}
			m, g := kernelsOf(lens)
			merged, galloped = merged || m, galloped || g

			var skipped, got []uint32
			ci, skips := 0, 0
			st := snap.RetrievePruned(strings.Join(query, " "),
				func(float64) bool {
					skip := rng.Bernoulli(0.4)
					if skip {
						skips++
						skipped = append(skipped, ps[0].chunk(ci).ids...)
					}
					ci++
					return skip
				},
				func(ids []uint32) { got = append(got, ids...) })
			var want []uint32
			for _, id := range naiveIntersect(lists) {
				if !slices.Contains(skipped, id) {
					want = append(want, id)
				}
			}
			context := fmt.Sprintf("seed %d trial %d regime %d", seed, trial, regime)
			assertSameIDs(t, got, want, context)
			if st != (PruneStats{Candidates: len(got), BlocksSkipped: skips, CandidatesPruned: len(skipped)}) {
				t.Fatalf("%s: stats %+v, want %d candidates, %d chunks and %d ids pruned", context, st, len(got), skips, len(skipped))
			}
		}
		if !merged || !galloped {
			t.Fatalf("seed %d: merged %v, galloped %v: every seed must reach both kernels", seed, merged, galloped)
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

// BenchmarkRetrieveIntersect times one two-term RetrieveInto on a
// 20,000-document deck-shaped index. dense intersects two head terms,
// ~3,800 ids each at 19% density: lists alike in size, the merge path.
// skewed intersects a 60-id term with a head term: the gallop path.
// Each op takes the next of 64 queries, as a cold query stream would,
// so the branch predictor cannot learn one pair's interleaving; one
// untimed pass over them warms the pooled scratch and the destination.
// CI gates dense against skewed, which pins the kernel choice at the
// runner's own scale.
func BenchmarkRetrieveIntersect(b *testing.B) {
	d := newDeckAdder()
	rng := randutil.New(3)
	rare := map[int]bool{}
	for len(rare) < 60 {
		rare[rng.Intn(20000)] = true
	}
	texts := d.texts(20000)
	for i := range texts {
		if rare[i] {
			texts[i] += " rare"
		}
	}
	d.addTexts(b, texts)
	head := func(k int) string { return "h" + strconv.Itoa(100 + k%96)[1:] }
	for _, bc := range []struct {
		name  string
		query func(k int) string
	}{
		{"dense", func(k int) string { return head(k) + " " + head(k+1) }},
		{"skewed", func(k int) string { return "rare " + head(k) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			queries := make([]string, 64)
			for k := range queries {
				queries[k] = bc.query(k)
			}
			snap := d.ix.Snapshot()
			var buf []uint32
			for _, q := range queries {
				if buf = snap.RetrieveInto(buf[:0], q); len(buf) == 0 {
					b.Fatalf("%q matches nothing", q)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = snap.RetrieveInto(buf[:0], queries[i&63])
			}
		})
	}
}

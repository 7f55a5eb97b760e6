package searchidx

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/randutil"
)

// indexModel is the reference the live term table is checked against: a
// map of sorted posting slices, maintained the obvious way. The texts it
// is fed never repeat a term.
type indexModel struct {
	lists map[string][]uint32
	terms map[int][]string
}

func (m *indexModel) add(id int, text string) {
	m.terms[id] = strings.Fields(text)
	for _, t := range m.terms[id] {
		l := m.lists[t]
		pos, found := slices.BinarySearch(l, uint32(id))
		if !found {
			m.lists[t] = slices.Insert(l, pos, uint32(id))
		}
	}
}

func (m *indexModel) remove(id int) {
	for _, t := range m.terms[id] {
		l := m.lists[t]
		if pos, found := slices.BinarySearch(l, uint32(id)); found {
			l = slices.Delete(l, pos, pos+1)
		}
		if len(l) == 0 {
			delete(m.lists, t)
		} else {
			m.lists[t] = l
		}
	}
	delete(m.terms, id)
}

func (m *indexModel) retrieve(query string) []uint32 {
	var lists [][]uint32
	for _, t := range strings.Fields(query) {
		lists = append(lists, m.lists[t])
	}
	return naiveIntersect(lists)
}

type scoredDoc struct {
	pop float64
	id  uint32
}

// offerTop streams one candidate (ids arrive ascending) into a top-k
// selection ordered by popularity, ties toward the older (smaller) id —
// the serving layer's rule: a candidate must BEAT the weakest kept one.
func offerTop(top []scoredDoc, k int, c scoredDoc) []scoredDoc {
	if len(top) == k {
		if c.pop <= top[k-1].pop {
			return top
		}
		top = top[:k-1]
	}
	top = append(top, c)
	for j := len(top) - 1; j > 0 && top[j].pop > top[j-1].pop; j-- {
		top[j], top[j-1] = top[j-1], top[j]
	}
	return top
}

// TestIndexMatchesModel drives random Adds (ascending ids and reused,
// out-of-order ones, so mid-list inserts happen), Deletes, emptied-then-
// refilled terms, emptied chunks and monotone popularity raises through
// the index and the model, and after every operation asserts: retrieval
// ≡ model for 1-, 2- and 3-term queries; the unpruned RetrievePruned ≡
// RetrieveInto; top-K under the serving layer's skip rule ≡ full-scan
// top-K (chunk bounds stay sound with no periodic re-tightening); the
// dictionary holds exactly the model's terms; the epoch counts the
// mutations; every live document's refs name a chunk holding it in each
// of its terms; every list is sorted chunks of 1..BlockStride ids; and
// every chunk's bound is at least the popularity of each entry it covers
// (a copied chunk carries its bound over and a split recomputes its
// halves', so this is the check that both are sound). Each seed must
// take lists through 1, 127, 128, 129 and 256 entries, split full
// chunks, pass a full chunk's last document to the next chunk, empty
// spine chunks and raise through refs those moved.
func TestIndexMatchesModel(t *testing.T) {
	const (
		ops     = 3000
		inOrder = 400 // ops of ascending adds before the late births
		topN    = 5
	)
	// The ref check dominates the test's cost, and the test runs on one
	// goroutine: under -race, where it is several times slower and the
	// detector has nothing to find, check every eighth op.
	refsEvery := 1
	if raceEnabled {
		refsEvery = 8
	}
	head := []string{"h0", "h1", "h2", "h3", "h4", "h5", "h6", "h7"}
	rare := []string{"r0", "r1", "r2", "r3", "r4", "r5"}
	vocabulary := slices.Concat([]string{"all"}, head, rare)
	for _, seed := range []uint64{1, 2, 3} {
		rng := randutil.New(seed)
		ix := NewIndex()
		pop := make([]float64, 0, ops)
		ix.SetPopFunc(func(id uint32) float64 { return pop[id] })
		m := &indexModel{lists: map[string][]uint32{}, terms: map[int][]string{}}
		var live, free, late []int
		var wantEpoch uint64
		skipped := 0
		maxPop := 0.0
		sizes := map[int]bool{} // list lengths the model passed through
		// Inserts into full chunks that split the tail or a spine chunk or
		// pass a document on, emptied spine chunks and raises that
		// re-resolved their refs.
		tailSplits, splits, passes, emptied, moved := 0, 0, 0, 0, 0
		// chunkOf returns term's chunk where id is or would go.
		chunkOf := func(term string, id int) (p *posting, ci int) {
			if p = ix.postings(term); p != nil {
				ci = p.locate(uint32(id))
			}
			return p, ci
		}

		randomText := func(extra string) string {
			text := "all"
			for _, h := range head {
				if rng.Bernoulli(0.5) {
					text += " " + h
				}
			}
			if extra == "" && rng.Bernoulli(0.3) {
				extra = rare[rng.Intn(len(rare))]
			}
			if extra != "" {
				text += " " + extra
			}
			return text
		}
		op := 0
		// pickID returns a freed id (reuse) or a new one. While the
		// lists fill in order, three new ids in ten are skipped and kept in
		// late for a late birth. Some pages are born popular: an append
		// must raise its chunk's bound too.
		pickID := func(reuse bool) int {
			if reuse && len(free) > 0 {
				i := rng.Intn(len(free))
				id := free[i]
				free[i] = free[len(free)-1]
				free = free[:len(free)-1]
				return id
			}
			for {
				born := 0.0
				if rng.Bernoulli(0.2) {
					born = rng.Float64() * (2 + maxPop)
				}
				pop = append(pop, born)
				maxPop = max(maxPop, born)
				if op >= inOrder || !rng.Bernoulli(0.3) {
					return len(pop) - 1
				}
				late = append(late, len(pop)-1)
			}
		}
		add := func(text string, id int) {
			for _, term := range strings.Fields(text) {
				if p, ci := chunkOf(term, id); p != nil {
					if ids := p.chunk(ci).ids; len(ids) == BlockStride && uint32(id) < ids[BlockStride-1] {
						switch {
						case ci == len(p.spine):
							tailSplits++
						case len(p.chunk(ci+1).ids) < BlockStride:
							passes++
						default:
							splits++
						}
					}
				}
			}
			if err := ix.Add(Document{ID: id, Text: text}); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			m.add(id, text)
			for _, term := range m.terms[id] {
				sizes[len(m.lists[term])] = true
			}
			live = append(live, id)
			wantEpoch++
		}
		remove := func(id int) {
			for _, term := range m.terms[id] {
				if p, ci := chunkOf(term, id); ci < len(p.spine) && len(p.spine[ci].ids) == 1 {
					emptied++
				}
				sizes[len(m.lists[term])-1] = true
			}
			if !ix.Delete(id) {
				t.Fatalf("seed %d: delete %d failed", seed, id)
			}
			m.remove(id)
			live = slices.DeleteFunc(live, func(v int) bool { return v == id })
			free = append(free, id)
			wantEpoch++
		}
		// raise is the serving layer's click: store the popularity, then
		// raise the covering bounds through the document's record.
		raise := func(id int, by float64) {
			pop[id] += by
			maxPop = max(maxPop, pop[id])
			if rec := ix.docs[id]; rec != nil && rec.seq != ix.rebuildSeq {
				moved++
			}
			if !ix.Raise(id, pop[id]) {
				t.Fatalf("seed %d: live doc %d is not indexed", seed, id)
			}
		}
		// checkRefs asserts that Raise leaves, for a live document, one
		// ref per term of its text in text order, each naming a chunk of
		// that term's list that holds the document. A zero pop raises
		// nothing, so the check leaves the bounds alone.
		checkRefs := func(ctx string, id int) {
			found := ix.Raise(id, 0)
			var refs []BoundRef
			if rec := ix.docs[id]; rec != nil {
				refs = rec.refs
			}
			terms := m.terms[id]
			if !found || len(refs) != len(terms) {
				t.Fatalf("%s: live doc %d (terms %v) has record %v, %d refs", ctx, id, terms, found, len(refs))
			}
			for i, r := range refs {
				c := ix.terms.byID(r.term())
				if c == nil || c.term != terms[i] {
					t.Fatalf("%s: doc %d ref %d names term id %d (cell %v), want %q", ctx, id, i, r.term(), c, terms[i])
				}
				p := c.p.Load()
				if r.chunk() >= p.chunks() {
					t.Fatalf("%s: doc %d ref names chunk %d of %q, which has %d", ctx, id, r.chunk(), c.term, p.chunks())
				}
				if _, in := slices.BinarySearch(p.chunk(r.chunk()).ids, uint32(id)); !in {
					t.Fatalf("%s: doc %d ref names chunk %d of %q, which does not hold it", ctx, id, r.chunk(), c.term)
				}
			}
		}

		// checkChunks asserts that every list is the model's ids in
		// chunks of 1..BlockStride, that every chunk bounds the
		// popularity of each entry in it, and that the headers the
		// previous check saw still hold what they held then: lock-free
		// readers may still be reading them.
		published := map[*posting][]uint32{}
		checkChunks := func(ctx string) {
			for old, ids := range published {
				if got := old.appendTo(nil); !slices.Equal(got, ids) {
					t.Fatalf("%s: a published header changed from %v to %v", ctx, ids, got)
				}
			}
			clear(published)
			for term, want := range m.lists {
				p := ix.terms.lookup(term).p.Load()
				got := p.appendTo(nil)
				if p.n != len(want) || !slices.Equal(got, want) {
					t.Fatalf("%s: %q holds %v (n=%d), want %v", ctx, term, got, p.n, want)
				}
				published[p] = got
				for ci := range p.chunks() {
					c := p.chunk(ci)
					if len(c.ids) == 0 || len(c.ids) > BlockStride {
						t.Fatalf("%s: chunk %d of %q holds %d ids", ctx, ci, term, len(c.ids))
					}
					for _, id := range c.ids {
						if up := c.upper(); up < pop[id] {
							t.Fatalf("%s: chunk %d of %q bounds %v, but doc %d is at %v", ctx, ci, term, up, id, pop[id])
						}
					}
				}
			}
		}

		for ; op < ops; op++ {
			switch r := rng.Float64(); {
			case op == inOrder:
				// The late births: each lands mid-list in chunks the
				// in-order adds filled, splitting them or passing a
				// document on, as a replica's out-of-order births do.
				rng.Shuffle(len(late), func(i, j int) { late[i], late[j] = late[j], late[i] })
				for _, id := range late {
					add(randomText(""), id)
				}
			case op < inOrder || r < 0.35 || len(live) == 0:
				add(randomText(""), pickID(false))
			case r < 0.50:
				add(randomText(""), pickID(true))
			case r < 0.847:
				remove(live[rng.Intn(len(live))])
			case r < 0.85:
				// Empty the smallest spine chunk of any list: its last
				// delete shifts the chunks after it.
				var victim []uint32
				for _, term := range vocabulary {
					if p := ix.postings(term); p != nil {
						for ci := range p.spine {
							if victim == nil || len(p.spine[ci].ids) < len(victim) {
								victim = p.spine[ci].ids
							}
						}
					}
				}
				for _, id := range slices.Clone(victim) {
					remove(int(id))
				}
			default:
				// Empty one rare term, check it is gone, and refill it.
				term := rare[rng.Intn(len(rare))]
				for _, id := range slices.Clone(m.lists[term]) {
					remove(int(id))
				}
				if got := ix.Retrieve(term); got != nil || ix.terms.lookup(term) != nil {
					t.Fatalf("seed %d op %d: emptied term %q retrieves %v, cell %v", seed, op, term, got, ix.terms.lookup(term))
				}
				add(randomText(term), pickID(rng.Bernoulli(0.5)))
			}
			// Clicks concentrate on a few old documents, as popularity
			// does — that is what lets a full selection rule out whole
			// blocks. The rest go to the youngest (the last blocks, through
			// refs resolved at their previous click) or anywhere, and one
			// in four of those overtakes every other page: the raise a
			// stale or unraised bound would hide.
			for range 2 {
				if len(live) == 0 {
					break
				}
				window := min(len(live), 12)
				var id int
				switch r := rng.Float64(); {
				case r < 0.4:
					raise(live[rng.Intn(window)], 1+100*rng.Float64())
					continue
				case r < 0.8:
					id = live[len(live)-1-rng.Intn(window)]
				default:
					id = live[rng.Intn(len(live))]
				}
				by := 1 + 100*rng.Float64()
				if rng.Bernoulli(0.25) {
					by += maxPop - pop[id]
				}
				raise(id, by)
			}

			ctx := fmt.Sprintf("seed %d op %d", seed, op)
			snap := ix.Snapshot()
			if snap.Epoch() != wantEpoch {
				t.Fatalf("%s: epoch %d, want %d", ctx, snap.Epoch(), wantEpoch)
			}
			if ix.Terms() != len(m.lists) {
				t.Fatalf("%s: Terms = %d, model has %d", ctx, ix.Terms(), len(m.lists))
			}
			if op%refsEvery == 0 {
				for _, id := range live {
					checkRefs(ctx, id)
				}
				checkChunks(ctx)
			}
			vocab := append(slices.Clone(head), "all", rare[rng.Intn(len(rare))])
			for nterms := 1; nterms <= 3; nterms++ {
				rng.Shuffle(len(vocab), func(i, j int) { vocab[i], vocab[j] = vocab[j], vocab[i] })
				query := strings.Join(vocab[:nterms], " ")
				want := m.retrieve(query)
				got := snap.RetrieveInto(nil, query)
				assertSameIDs(t, got, want, ctx+" RetrieveInto "+query)

				var streamed []uint32
				snap.RetrievePruned(query, nil, func(ids []uint32) { streamed = append(streamed, ids...) })
				assertSameIDs(t, streamed, want, ctx+" RetrievePruned(nil) "+query)

				var full, pruned []scoredDoc
				for _, id := range want {
					full = offerTop(full, topN, scoredDoc{pop[id], id})
				}
				st := snap.RetrievePruned(query,
					func(upper float64) bool { return len(pruned) == topN && upper <= pruned[topN-1].pop },
					func(ids []uint32) {
						for _, id := range ids {
							pruned = offerTop(pruned, topN, scoredDoc{pop[id], id})
						}
					})
				skipped += st.BlocksSkipped
				if !slices.Equal(pruned, full) {
					t.Fatalf("%s: pruned top-%d of %q = %v, full scan = %v", ctx, topN, query, pruned, full)
				}
			}
		}
		if skipped == 0 {
			t.Fatalf("seed %d: no chunk was ever skipped — the pruning check checked nothing", seed)
		}
		for _, n := range []int{1, BlockStride - 1, BlockStride, BlockStride + 1, 2 * BlockStride} {
			if !sizes[n] {
				t.Fatalf("seed %d: no list ever held %d entries", seed, n)
			}
		}
		if tailSplits == 0 || splits == 0 || passes == 0 || emptied == 0 || moved == 0 {
			t.Fatalf("seed %d: %d tail splits, %d spine splits, %d passed documents, %d emptied spine chunks, %d re-resolved raises: a chunk boundary went unchecked",
				seed, tailSplits, splits, passes, emptied, moved)
		}
		t.Logf("seed %d: %d live documents, %d terms, %d chunks skipped, %d tail splits, %d spine splits, %d passed documents, %d emptied spine chunks, %d re-resolved raises",
			seed, len(live), ix.Terms(), skipped, tailSplits, splits, passes, emptied, moved)
	}
}

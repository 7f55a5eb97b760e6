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
// refilled terms and monotone popularity raises through the index and
// the model, and after every operation asserts: retrieval ≡ model for
// 1-, 2- and 3-term queries; the unpruned RetrievePruned ≡ RetrieveInto;
// top-K under the serving layer's skip rule ≡ full-scan top-K (block
// bounds stay sound with no periodic re-tightening); the dictionary
// holds exactly the model's terms; the epoch counts the mutations;
// every live document's refs name a block holding it in each of its
// terms; and every block's bound is at least the popularity of each
// entry it covers (a mid-list insert shifts bounds instead of
// recomputing them, so this is the check that the shift is sound).
func TestIndexMatchesModel(t *testing.T) {
	const (
		ops  = 3000
		topN = 5
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
	for _, seed := range []uint64{1, 2, 3} {
		rng := randutil.New(seed)
		ix := NewIndex()
		pop := make([]float64, 0, ops)
		ix.SetPopFunc(func(id uint32) float64 { return pop[id] })
		m := &indexModel{lists: map[string][]uint32{}, terms: map[int][]string{}}
		var live, free []int
		var wantEpoch uint64
		skipped := 0
		maxPop := 0.0

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
		add := func(text string, reuse bool) {
			id := len(pop)
			if reuse && len(free) > 0 {
				i := rng.Intn(len(free))
				id, free[i] = free[i], free[len(free)-1]
				free = free[:len(free)-1]
			} else {
				// Some pages are born popular: an append must raise its
				// block's bound too.
				born := 0.0
				if rng.Bernoulli(0.2) {
					born = rng.Float64() * (2 + maxPop)
				}
				pop = append(pop, born)
				maxPop = max(maxPop, born)
			}
			if err := ix.Add(Document{ID: id, Text: text}); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			m.add(id, text)
			live = append(live, id)
			wantEpoch++
		}
		remove := func(id int) {
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
			if !ix.Raise(id, pop[id]) {
				t.Fatalf("seed %d: live doc %d is not indexed", seed, id)
			}
		}
		// checkRefs asserts that Raise leaves, for a live document, one
		// ref per term of its text in text order, each naming a block of
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
				ids := c.p.Load().ids
				lo := min(r.block()*BlockStride, len(ids))
				if _, in := slices.BinarySearch(ids[lo:min(lo+BlockStride, len(ids))], uint32(id)); !in {
					t.Fatalf("%s: doc %d ref names block %d of %q, which does not hold it", ctx, id, r.block(), c.term)
				}
			}
		}

		// checkBounds asserts that every block of every list bounds the
		// popularity of each entry in it.
		checkBounds := func(ctx string) {
			for term := range m.lists {
				p := ix.terms.lookup(term).p.Load()
				for i, id := range p.ids {
					if up := p.b.upper(i / BlockStride); up < pop[id] {
						t.Fatalf("%s: block %d of %q bounds %v, but entry %d (doc %d) is at %v", ctx, i/BlockStride, term, up, i, id, pop[id])
					}
				}
			}
		}

		for op := 0; op < ops; op++ {
			switch r := rng.Float64(); {
			case op < 400 || r < 0.35 || len(live) == 0:
				add(randomText(""), false)
			case r < 0.50:
				add(randomText(""), true)
			case r < 0.85:
				remove(live[rng.Intn(len(live))])
			default:
				// Empty one rare term, check it is gone, and refill it.
				term := rare[rng.Intn(len(rare))]
				for _, id := range slices.Clone(m.lists[term]) {
					remove(int(id))
				}
				if got := ix.Retrieve(term); got != nil || ix.terms.lookup(term) != nil {
					t.Fatalf("seed %d op %d: emptied term %q retrieves %v, cell %v", seed, op, term, got, ix.terms.lookup(term))
				}
				add(randomText(term), rng.Bernoulli(0.5))
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
				checkBounds(ctx)
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
			t.Fatalf("seed %d: no block was ever skipped — the pruning check checked nothing", seed)
		}
		t.Logf("seed %d: %d live documents, %d terms, %d blocks skipped", seed, len(live), ix.Terms(), skipped)
	}
}

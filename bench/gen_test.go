package main

import (
	"bytes"
	"container/list"
	"testing"
)

// stream concatenates everything a seed makes the clients send.
func stream(seed uint64) []byte {
	var b bytes.Buffer
	for _, p := range genPages(seed, 500) {
		b.WriteString(p.text)
	}
	for cl := 0; cl < 2; cl++ {
		for _, r := range genRankReqs(seed, cl, genHotQueries(seed), 300) {
			b.Write(r.wire)
		}
		for _, r := range genBatchReqs(seed, cl, clientShare(genColdQueries(seed), cl, 2), 20) {
			b.Write(r.wire)
		}
		for _, p := range genBulkPosts(seed, cl, 500, 3) {
			b.Write(p.wire)
		}
	}
	return b.Bytes()
}

func TestSameSeedSameBytes(t *testing.T) {
	a, b := stream(1), stream(1)
	if !bytes.Equal(a, b) {
		t.Fatal("seed 1 generated two different request streams")
	}
	if bytes.Equal(a, stream(2)) {
		t.Fatal("seeds 1 and 2 generated the same request stream")
	}
}

// lruHitRatio replays the clients' query streams, interleaved one
// request each, against an LRU of the service's default cache size.
// Browse requests ("") never consult the cache.
func lruHitRatio(streams [][]string, capacity int) float64 {
	order := list.New()
	at := map[string]*list.Element{}
	hits, total := 0, 0
	for i := 0; i < len(streams[0]); i++ {
		for _, s := range streams {
			q := s[i]
			if q == "" {
				continue
			}
			total++
			if e, ok := at[q]; ok {
				hits++
				order.MoveToFront(e)
				continue
			}
			at[q] = order.PushFront(q)
			if order.Len() > capacity {
				old := order.Back()
				order.Remove(old)
				delete(at, old.Value.(string))
			}
		}
	}
	return float64(hits) / float64(total)
}

// On either seed the generated traffic has the shape the workloads
// assert at run time: the hot set lives in the cache, the cold cycle
// never finds its query there, and cold queries match hundreds of pages.
func TestWorkloadShapeHoldsAcrossSeeds(t *testing.T) {
	const cacheSize = 256 // serve.Config.QueryCacheSize default
	for _, seed := range []uint64{1, 2} {
		hot, cold := genHotQueries(seed), genColdQueries(seed)
		if len(hot) != hotQueries || len(cold) != headTerms*(headTerms-1)/2 {
			t.Fatalf("seed %d: %d hot, %d cold queries", seed, len(hot), len(cold))
		}
		var hotStreams, coldStreams [][]string
		for cl := 0; cl < 2; cl++ {
			var hs, cs []string
			for _, r := range genRankReqs(seed, cl, hot, 20000) {
				hs = append(hs, r.query)
			}
			for _, b := range genBatchReqs(seed, cl, clientShare(cold, cl, 2), 400) {
				for _, sub := range b.subs {
					cs = append(cs, sub.query)
				}
			}
			hotStreams, coldStreams = append(hotStreams, hs), append(coldStreams, cs)
		}
		// No cold query is ever sent by two clients.
		mine := map[string]bool{}
		for _, q := range coldStreams[0] {
			mine[q] = true
		}
		for _, q := range coldStreams[1] {
			if mine[q] {
				t.Fatalf("seed %d: both clients send cold query %q", seed, q)
			}
		}
		if r := lruHitRatio(hotStreams, cacheSize); r < 0.99 {
			t.Errorf("seed %d: hot stream hit ratio %.4f, want >= 0.99", seed, r)
		}
		if r := lruHitRatio(coldStreams, cacheSize); r > 0.10 {
			t.Errorf("seed %d: cold stream hit ratio %.4f, want <= 0.10", seed, r)
		}
		if m := meanMatchSet(genPages(seed, deckPages), cold[:256]); m < 500 {
			t.Errorf("seed %d: mean match set %.0f, want >= 500", seed, m)
		}
	}
}

func TestPagesShape(t *testing.T) {
	pages := genPages(1, 1000)
	zero := 0
	for i, p := range pages {
		if p.id != i {
			t.Fatalf("page %d has id %d", i, p.id)
		}
		if p.pop == 0 {
			zero++
		} else if i > 0 && pages[i-1].pop != 0 && p.pop >= pages[i-1].pop {
			t.Fatalf("popularity not decreasing at page %d", i)
		}
		terms := map[string]bool{}
		for _, f := range bytes.Fields([]byte(p.text)) {
			terms[string(f)] = true
		}
		if len(terms) != termsPerPage+1 {
			t.Fatalf("page %d has %d distinct terms, want %d", i, len(terms), termsPerPage+1)
		}
	}
	if zero != 1000/zeroEvery {
		t.Errorf("%d zero-awareness pages, want %d", zero, 1000/zeroEvery)
	}
	if q := quality(1, 7); q < 0.05 || q > 0.6 || q != quality(1, 7) || q == quality(2, 7) {
		t.Errorf("quality(1,7) = %v", q)
	}
}

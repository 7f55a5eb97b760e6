package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/randutil"
)

// benchCorpus builds a 10k-page corpus over 8 shards: 2% zero-awareness,
// the rest with Zipf-shaped popularity — the serving benchmark's steady
// state.
func benchCorpus(b *testing.B) (*Corpus, int) {
	return benchCorpusCfg(b, Config{Shards: 8, Seed: 1})
}

// benchCorpusCfg is the benchCorpus page set under an explicit Config.
func benchCorpusCfg(b *testing.B, cfg Config) (*Corpus, int) {
	b.Helper()
	n := 10000
	if testing.Short() {
		n = 1000
	}
	c, err := NewCorpus(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	for i := 0; i < n; i++ {
		pop := 0.0
		if i%50 != 0 {
			pop = float64(n) / float64(i+1)
		}
		if err := c.Add(i, fmt.Sprintf("bench topic page%d", i), pop); err != nil {
			b.Fatal(err)
		}
	}
	c.Sync()
	return c, n
}

// warmRank issues one untimed request so pooled scratch reaches steady
// state before the timer starts: CI runs these benchmarks at
// -benchtime=1x, where an unwarmed first iteration would measure
// one-time buffer growth instead of the per-request cost being gated.
func warmRank(b *testing.B, c *Corpus, query string) {
	b.Helper()
	if _, err := c.Rank(query, 10); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkServeRank measures the /rank hot path end to end on the
// in-process corpus: lock-free snapshot reads plus one
// bounded merge, concurrent across GOMAXPROCS
// goroutines the way a server's handler pool would run it. It reports
// sustained QPS alongside ns/op.
func BenchmarkServeRank(b *testing.B) {
	c, _ := benchCorpus(b)
	warmRank(b, c, "")
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			res, err := c.Rank("", 10)
			if err != nil {
				b.Fatal(err)
			}
			if len(res) != 10 {
				b.Fatalf("served %d results", len(res))
			}
		}
	})
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)/secs, "qps")
	}
}

// BenchmarkServeRankPool measures one browse rank (n = 10, the
// recommended selective policy) on 8 shards as the zero-awareness pool
// grows from none to 1,000 pages beside 2,000 aware ones. A rank draws
// at most n promoted pages lazily from the shards' published pools, so
// the two cases should cost about the same; copying and shuffling the
// pool per request made zero=1000 several times zero=0. CI's -ratio
// gate holds that.
func BenchmarkServeRankPool(b *testing.B) {
	for _, zero := range []int{0, 1000} {
		b.Run(fmt.Sprintf("zero=%d", zero), func(b *testing.B) {
			c, err := NewCorpus(Config{Shards: 8, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(c.Close)
			for i := 0; i < 2000+zero; i++ {
				pop := float64(2000 - i)
				if i >= 2000 {
					pop = 0
				}
				if err := c.Add(i, fmt.Sprintf("pool topic page%d", i), pop); err != nil {
					b.Fatal(err)
				}
			}
			c.Sync()
			warmRank(b, c, "")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Rank("", 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServeFeedbackPool measures what one rank-changing click costs
// a shard as its zero-awareness pool grows: a 1-event feedback batch on
// an aware page plus Sync, on one in-memory shard holding 100 or 50,000
// pool pages. The apply loop republishes the shard after the click; the
// publish shares the pool's chunks instead of copying or sampling the
// pool, so CI's -ratio gate holds pool=50000 within 1.3x of pool=100.
func BenchmarkServeFeedbackPool(b *testing.B) {
	for _, pool := range []int{100, 50000} {
		b.Run(fmt.Sprintf("pool=%d", pool), func(b *testing.B) {
			c, err := NewCorpus(Config{Shards: 1, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(c.Close)
			for i := 0; i < pool; i++ {
				if err := c.Add(i, "pool page", 0); err != nil {
					b.Fatal(err)
				}
			}
			const anchor = -1
			if err := c.Add(anchor, "anchor page", 1); err != nil {
				b.Fatal(err)
			}
			c.Sync()
			click := []Event{{Page: anchor, Slot: 1, Impressions: 1, Clicks: 1}}
			c.Feedback(click)
			c.Sync()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Feedback(click)
				c.Sync()
			}
		})
	}
}

// BenchmarkServeRankQuery measures the steady-state query path: a hot
// query served from the epoch-keyed candidate cache, plus the
// per-request bounded merge drawing from the cached pool matches.
func BenchmarkServeRankQuery(b *testing.B) {
	c, _ := benchCorpus(b)
	warmRank(b, c, "bench topic")
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := c.Rank("bench topic", 10); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServeRankArms measures the query hot path under a live
// two-arm experiment (deterministic control vs selective treatment):
// unit hashing, arm assignment, the per-arm query cache and the arm's
// policy merge. The single-arm path (BenchmarkServeRankQuery) is the
// no-experiment baseline this must stay close to.
func BenchmarkServeRankArms(b *testing.B) {
	n := 10000
	if testing.Short() {
		n = 1000
	}
	c, err := NewCorpus(Config{Shards: 8, Seed: 1, Arms: []Arm{
		{Name: "control", Policy: pspec("deterministic", 0, 0, 0), Weight: 1},
		{Name: "treatment", Policy: pspec("selective", 1, 0.1, 0), Weight: 1},
	}})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	for i := 0; i < n; i++ {
		pop := 0.0
		if i%50 != 0 {
			pop = float64(n) / float64(i+1)
		}
		if err := c.Add(i, fmt.Sprintf("bench topic page%d", i), pop); err != nil {
			b.Fatal(err)
		}
	}
	c.Sync()
	// A fixed unit pool, pre-rendered so the loop measures serving, not
	// fmt. Warm both arms' cache entries untimed.
	units := make([]string, 64)
	for i := range units {
		units[i] = fmt.Sprintf("bench-unit-%d", i)
		if _, _, err := c.RankUnit(units[i], "bench topic", 10); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, _, err := c.RankUnit(units[i&63], "bench topic", 10); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkServeRankQueryUncached measures the cold query path with the
// cache disabled: block-max pruned snapshot retrieval (an intersection
// that skips posting blocks whose popularity upper bound cannot beat the
// top-K heap minimum) plus dense-slot stat loads for the surviving
// candidates — the cost every epoch change or novel query pays. The
// corpus is a 20k-page deck (deckGen), and each op ranks the next of 64
// distinct two-head-term queries, each pair matching 595–728 pages of
// two ~3,760-id lists: one repeated query over two identical lists
// would let the branch predictor learn its intersection. CI pins it
// against the cached hot path (BenchmarkServeRankQuery).
func BenchmarkServeRankQueryUncached(b *testing.B) {
	n := 20000
	if testing.Short() {
		n /= 10
	}
	c, err := NewCorpus(Config{Shards: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	c.qcache = nil
	addDeck(b, c, newDeckGen(n), 0, n)
	c.Sync()
	head := func(k int) string { return "h" + strconv.Itoa(100 + k%96)[1:] }
	queries := make([]string, 64)
	for k := range queries {
		queries[k] = head(k) + " " + head(k+1)
		// The untimed pass also brings pooled scratch to steady state.
		if res, err := c.Rank(queries[k], 10); err != nil || len(res) == 0 {
			b.Fatalf("%q: %d results, %v", queries[k], len(res), err)
		}
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := c.Rank(queries[i&63], 10); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// coldPairs returns every pair of the deck's 96 head terms, 4,560
// two-term queries (18x the query cache), in a fixed shuffled order.
func coldPairs() []string {
	head := func(k int) string { return "h" + strconv.Itoa(100 + k)[1:] }
	qs := make([]string, 0, 96*95/2)
	for a := 0; a < 96; a++ {
		for b := a + 1; b < 96; b++ {
			qs = append(qs, head(a)+" "+head(b))
		}
	}
	rng := randutil.New(7)
	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return qs
}

// BenchmarkServeRankQueryColdCycle measures what the hot-query cache
// costs queries that do not come back before they are evicted: each op
// ranks the next 64 of the 4,560 head-term pairs over the 20k deck,
// cycling them, with the cache on and off. Once the cache is full a key
// is cached only on its second miss, so a cold miss takes no write lock
// and copies nothing, and cache=on reads about cache=off; filling on
// every miss read ~1.4x. CI's -ratio gate holds 1.2x. Four untimed
// passes over every pair come first: in a fixed cycle the doorkeeper
// admits only keys that no other missing key overwrites between two
// visits, and it has admitted them within the first passes, so the
// timed ops fill almost never and allocs/op is that of cache=off.
func BenchmarkServeRankQueryColdCycle(b *testing.B) {
	n := 20000
	if testing.Short() {
		n /= 10
	}
	c, err := NewCorpus(Config{Shards: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	addDeck(b, c, newDeckGen(n), 0, n)
	c.Sync()
	queries := coldPairs()
	for _, cache := range []bool{true, false} {
		name := "cache=off"
		c.qcache = nil
		if cache {
			name = "cache=on"
			c.qcache = newQueryCache(queryCacheEntries)
		}
		for pass := 0; pass < 4; pass++ {
			for _, q := range queries {
				if _, err := c.Rank(q, 10); err != nil {
					b.Fatal(err)
				}
			}
		}
		next := 0
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for j := 0; j < 64; j++ {
					if _, err := c.Rank(queries[next], 10); err != nil {
						b.Fatal(err)
					}
					next = (next + 1) % len(queries)
				}
			}
		})
	}
}

// BenchmarkServeRankQueryUncachedMatches measures how the cold query
// path scales with the number of matching candidates. Once the top-K
// heap fills, block-max pruning skips every posting block whose
// popularity upper bound cannot beat the heap minimum, so ns/op must
// grow sublinearly from n=1k to n=100k — a full scan grows ~100x.
func BenchmarkServeRankQueryUncachedMatches(b *testing.B) {
	for _, bc := range []struct {
		name string
		n    int
	}{{"n=1k", 1000}, {"n=10k", 10000}, {"n=100k", 100000}} {
		b.Run(bc.name, func(b *testing.B) {
			c, err := NewCorpus(Config{Shards: 8, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(c.Close)
			c.qcache = nil
			for i := 0; i < bc.n; i++ {
				pop := 0.0
				if i%50 != 0 {
					pop = float64(bc.n) / float64(i+1)
				}
				if err := c.Add(i, fmt.Sprintf("bench topic page%d", i), pop); err != nil {
					b.Fatal(err)
				}
			}
			c.Sync()
			warmRank(b, c, "bench topic")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Rank("bench topic", 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServeRankHTTP measures the full HTTP handler path: JSON
// decode, rank, JSON encode — the per-request cost a deployment pays.
func BenchmarkServeRankHTTP(b *testing.B) {
	c, _ := benchCorpus(b)
	srv := NewServer(c)
	body, err := json.Marshal(RankRequest{N: 10})
	if err != nil {
		b.Fatal(err)
	}
	// One untimed request warms the handler's pooled buffers (see
	// warmRank).
	req := httptest.NewRequest(http.MethodPost, "/v1/rank", bytes.NewReader(body))
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		b.Fatalf("warmup status %d", w.Code)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			req := httptest.NewRequest(http.MethodPost, "/v1/rank", bytes.NewReader(body))
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				b.Fatalf("status %d", w.Code)
			}
		}
	})
}

// benchWriter is a reusable http.ResponseWriter that keeps only the
// status, so a benchmark's allocs/op are the handler's, not a fresh
// recorder's.
type benchWriter struct {
	header http.Header
	code   int
}

func (w *benchWriter) Header() http.Header         { return w.header }
func (w *benchWriter) WriteHeader(code int)        { w.code = code }
func (w *benchWriter) Write(p []byte) (int, error) { return len(p), nil }

// reusedPost returns a function that posts body to path through one
// reused request and response writer, so AllocsPerRun sees the handler
// (and the apply loops), not a harness.
func reusedPost(srv *Server, path string, body []byte) (post func(), w *benchWriter) {
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, path, rd)
	w = &benchWriter{header: make(http.Header)}
	return func() {
		rd.Reset(body)
		srv.ServeHTTP(w, req)
	}, w
}

// BenchmarkServeFeedbackHTTP measures the full /v1/feedback handler
// path on the body the live loop posts (loopFeedbackBody): read, JSON
// decode, validation, shard partition and admission, 202 — and the
// apply loops folding the events in. Unlike
// BenchmarkServeRankHTTP it reuses one request and one response writer
// per goroutine, so ns/op and allocs/op carry no httptest harness. The
// queue is sized like the end-to-end benchmark's so a single-CPU run
// does not outrun the apply loops into 429s; the rare post that still
// does drains the queues and retries.
func BenchmarkServeFeedbackHTTP(b *testing.B) {
	c, n := benchCorpusCfg(b, Config{Shards: 8, Seed: 1, QueueLen: 1024})
	srv := NewServer(c)
	body := loopFeedbackBody(n)
	poster := func() func() {
		post, w := reusedPost(srv, "/v1/feedback", body)
		return func() {
			for {
				post()
				switch w.code {
				case http.StatusAccepted:
					return
				case http.StatusTooManyRequests:
					c.Sync()
				default:
					b.Fatalf("status %d", w.code)
				}
			}
		}
	}
	poster()() // warm the pooled buffers (see warmRank)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		post := poster()
		for pb.Next() {
			post()
		}
	})
	// Drain inside the timed region: acceptance is asynchronous, and at a
	// small b.N most of the apply work would otherwise fall outside it,
	// making ns/op and allocs/op depend on the iteration count.
	c.Sync()
}

// BenchmarkServeRankBatch measures the /v1/rank/batch binary path: one
// varint-framed frame of 32 sub-requests decoded, ranked and re-encoded
// per op — the amortized per-POST cost the batch wire protocol buys over
// 32 individual JSON round trips. It reports sub-requests/s alongside
// ns/op.
func BenchmarkServeRankBatch(b *testing.B) {
	c, _ := benchCorpus(b)
	srv := NewServer(c)
	const batch = 32
	reqs := make([]RankRequest, batch)
	for i := range reqs {
		seed := uint64(i + 1)
		reqs[i] = RankRequest{N: 10, Unit: fmt.Sprintf("bench-unit-%d", i&7), Seed: &seed}
	}
	body := AppendRankBatchRequest(nil, reqs)
	// One untimed frame warms the handler's pooled buffers (see warmRank).
	req := httptest.NewRequest(http.MethodPost, "/v1/rank/batch", bytes.NewReader(body))
	req.Header.Set("Content-Type", BatchContentType)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		b.Fatalf("warmup status %d: %s", w.Code, w.Body.String())
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			req := httptest.NewRequest(http.MethodPost, "/v1/rank/batch", bytes.NewReader(body))
			req.Header.Set("Content-Type", BatchContentType)
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				b.Fatalf("status %d: %s", w.Code, w.Body.String())
			}
		}
	})
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)*batch/secs, "subreqs/s")
	}
}

// BenchmarkServeFeedback measures feedback ingestion throughput through
// the sharded apply loops, events/op = 64.
func BenchmarkServeFeedback(b *testing.B) {
	c, n := benchCorpus(b)
	var seq atomic.Uint64
	const batch = 64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		local := make([]Event, batch)
		for pb.Next() {
			base := int(seq.Add(1))
			for i := range local {
				local[i] = Event{Page: (base*batch + i) % n, Slot: 1 + i%10, Impressions: 1, Clicks: 1}
			}
			c.Feedback(local)
		}
	})
	b.StopTimer()
	c.Sync()
}

// benchDurableCorpus builds the benchCorpus shape on a WAL-backed data
// dir in FsyncMode=batch, seeding the corpus through the group-commit
// path itself.
func benchDurableCorpus(b *testing.B) (*Corpus, int) {
	b.Helper()
	n := 10000
	if testing.Short() {
		n = 1000
	}
	c, err := NewCorpus(Config{Shards: 8, Seed: 1, Durability: Durability{DataDir: b.TempDir(), FsyncMode: "batch"}})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	for i := 0; i < n; i++ {
		pop := 0.0
		if i%50 != 0 {
			pop = float64(n) / float64(i+1)
		}
		if err := c.Add(i, fmt.Sprintf("bench topic page%d", i), pop); err != nil {
			b.Fatal(err)
		}
	}
	c.Sync()
	return c, n
}

// BenchmarkServeRankDurable is BenchmarkServeRank with durability
// enabled (WAL in FsyncMode=batch): the /rank hot path reads lock-free
// shard snapshots and never touches the log, so group commit must keep
// serving at the in-memory corpus's cost — this bench gates that claim.
func BenchmarkServeRankDurable(b *testing.B) {
	c, _ := benchDurableCorpus(b)
	warmRank(b, c, "")
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			res, err := c.Rank("", 10)
			if err != nil {
				b.Fatal(err)
			}
			if len(res) != 10 {
				b.Fatalf("served %d results", len(res))
			}
		}
	})
}

// BenchmarkServeRankOverload measures the /rank hot path while the
// ingestion side is saturated: a 2ms injected latency on every WAL
// write plus single-batch shard queues keeps the apply loops pinned and
// admission control shedding flooder batches with ErrOverloaded the
// whole run. Rank reads lock-free snapshots and must stay at the
// uncontended durable corpus's cost — this bench gates the rank path's
// isolation from write overload.
func BenchmarkServeRankOverload(b *testing.B) {
	n := 10000
	if testing.Short() {
		n = 1000
	}
	inject := &faultfs.Injector{}
	c, err := NewCorpus(Config{
		Shards: 8, Seed: 1, QueueLen: 1,
		Durability: Durability{DataDir: b.TempDir(), FsyncMode: "none", FaultInjector: inject},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	for i := 0; i < n; i++ {
		pop := 0.0
		if i%50 != 0 {
			pop = float64(n) / float64(i+1)
		}
		if err := c.Add(i, fmt.Sprintf("bench topic page%d", i), pop); err != nil {
			b.Fatal(err)
		}
	}
	c.Sync()
	// Arm the latency only after the build so setup stays fast, and
	// clear it before Close so the final queue drain does too.
	inject.SetLatency(2 * time.Millisecond)
	defer inject.Clear()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var shed atomic.Uint64
	// Flooders must be stopped before b.Cleanup closes the corpus.
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One batch spanning every shard: the all-or-nothing
			// admission across target shards is what real multi-page
			// feedback POSTs contend on.
			ev := make([]Event, 16)
			for i := range ev {
				ev[i] = Event{Page: i % n, Slot: 1 + i%10, Impressions: 1}
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := c.TryFeedback(ev); err != nil {
					if !errors.Is(err, ErrOverloaded) {
						b.Error(err)
						return
					}
					shed.Add(1)
					time.Sleep(200 * time.Microsecond) // client backoff
				}
			}
		}()
	}
	warmRank(b, c, "")
	// Don't start the clock until admission control is actually
	// shedding — at -benchtime=100x the whole measured run is shorter
	// than one injected write, so an unsaturated start would measure an
	// idle corpus.
	for deadline := time.Now().Add(5 * time.Second); shed.Load() == 0; {
		if time.Now().After(deadline) {
			b.Fatal("overload never engaged")
		}
		time.Sleep(time.Millisecond)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			res, err := c.Rank("", 10)
			if err != nil {
				b.Fatal(err)
			}
			if len(res) != 10 {
				b.Fatalf("served %d results", len(res))
			}
		}
	})
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)/secs, "qps")
	}
	b.ReportMetric(float64(shed.Load()), "shed")
}

// BenchmarkServeFeedbackDurable measures the durable ingestion path end
// to end: a 64-event batch partitioned to the shards, WAL-encoded,
// group-committed (one fsync per batch in FsyncMode=batch) and applied,
// with the caller blocked until the acknowledgement is real — the
// write-side cost a durability-configured deployment pays per feedback
// POST.
func BenchmarkServeFeedbackDurable(b *testing.B) {
	c, n := benchDurableCorpus(b)
	const batch = 64
	events := make([]Event, batch)
	for i := range events {
		events[i] = Event{Page: i % n, Slot: i%10 + 1, Impressions: 1}
	}
	c.Feedback(events) // steady state before the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Feedback(events)
	}
	b.StopTimer()
	c.Sync()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)*batch/secs, "events/s")
	}
}

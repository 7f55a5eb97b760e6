package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/policy"
	"repro/internal/randutil"
	"repro/internal/rankengine"
	"repro/internal/searchidx"
	"repro/internal/serve"
	"repro/internal/wal"
)

// The traced run: per-layer metrics, measured only from here — by timing
// calls into each module's public functions on the same generated inputs
// and by reading public counters. Every traced run reports every
// per-layer metric: the workload's own window supplies the counters that
// depend on the traffic, short runs of ingest-durable and cluster-quorum
// supply the wal, store and cluster rows when the workload is neither,
// and one probe suite on a fresh deck-20k supplies the rest.

// mainSpan names the operation kind whose spans a workload's client
// budget rows are taken from.
var mainSpan = map[string]string{
	"rank-hot": "rank", "rank-cold": "batch", "live-loop": "rank", "ingest-durable": "feedback", "cluster-quorum": "rank",
}

func (r *run) layer(name string, v float64, unit string) { r.layers[name] = metric{v, unit} }

// traced runs the workload for a quarter of the window with tracing on,
// then the short runs and the probes.
func (r *run) traced(body func(*run) error) error {
	full := r.window
	r.window = full / 4
	r.setups = 1
	r.probes = true
	r.tr = newTracer(1 << 18)
	if err := body(r); err != nil {
		return err
	}
	r.layer("serve.failed_ops", float64(r.tal.failed), "count")
	r.clientBudget()
	if err := r.tr.write(r.outDir, r.workload); err != nil {
		return err
	}
	// The workload's system is done; free its memory and directories
	// before building the probes' own.
	r.s.close()
	r.s = nil

	for _, short := range []struct {
		name   string
		body   func(*run) error
		prefix []string
	}{
		{"ingest-durable", (*run).ingestDurable, []string{"wal.", "store."}},
		{"cluster-quorum", (*run).clusterQuorum, []string{"cluster."}},
	} {
		if short.name == r.workload {
			continue
		}
		sub := &run{
			workload: short.name, seed: r.seed, window: full / 8, clients: r.clients, setups: 1, outDir: r.outDir, probes: true, ctlAddr: r.ctlAddr,
			metrics: map[string]metric{}, samples: map[string]int{}, layers: map[string]metric{},
		}
		err := short.body(sub)
		if sub.s != nil {
			sub.s.close()
		}
		if err != nil {
			return fmt.Errorf("short %s run: %w", short.name, err)
		}
		r.tal.assert(sub.tal.incorrect == 0 && sub.tal.failed == 0, "short %s run: %d failed, %d incorrect: %v", short.name, sub.tal.failed, sub.tal.incorrect, sub.tal.errs)
		for name, m := range sub.layers {
			for _, p := range short.prefix {
				if strings.HasPrefix(name, p) {
					r.layers[name] = m
				}
			}
		}
	}
	return r.probeSuite(full / 8)
}

// clientBudget turns the traced window's spans into the client-side rows
// of the latency budget and the cost of tracing itself.
func (r *run) clientBudget() {
	kind := mainSpan[r.workload]
	self := selfTimes(r.tr.spans)
	write, await, check := medianSelfUS(self, kind+".write"), medianSelfUS(self, kind+".await"), medianSelfUS(self, kind+".check")
	r.layer("loadgen.write_us", write, "us")
	r.layer("loadgen.await_us", await, "us")
	r.layer("loadgen.check_us", check, "us")
	// A traced operation's latency is its write plus its await; the
	// window's p50 is dominated by the seven in eight that were not
	// traced.
	var p50 float64
	switch kind {
	case "rank":
		p50 = r.metrics["rank_p50_us"].Value
	case "batch":
		p50 = r.metrics["batch_p50_us"].Value
	default:
		p50 = r.metrics["feedback_ack_p50_us"].Value
	}
	var lat []int64
	for _, s := range r.tr.spans {
		if s.Name == kind+".await" && s.End >= 0 {
			lat = append(lat, s.End-r.tr.spans[s.Parent].Start)
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if p50 > 0 && len(lat) > 0 {
		r.layer("trace.overhead_pct", (float64(percentile(lat, 0.5))/1e3-p50)/p50*100, "%")
	} else {
		r.layer("trace.overhead_pct", 0, "%")
	}
}

// layerWindow derives the traffic-dependent serve and searchidx rows
// from two /v1/stats samples around a window.
func (r *run) layerWindow(before, after serve.StatsResponse, dur time.Duration) {
	r.layer("serve.cache_hit_ratio", hitRatio(before, after), "ratio")
	r.layer("serve.epochs_per_s", float64(sumEpochs(after)-sumEpochs(before))/dur.Seconds(), "1/s")
	r.layer("serve.feedback_429", float64(after.Feedback429-before.Feedback429), "count")
	r.layer("serve.feedback_503", float64(after.Feedback503-before.Feedback503), "count")
	r.layer("serve.dropped", float64(after.Dropped-before.Dropped), "count")
	perMiss := func(a, b uint64) float64 {
		if misses := after.QueryCacheMisses - before.QueryCacheMisses; misses > 0 {
			return float64(a-b) / float64(misses)
		}
		return 0
	}
	r.layer("searchidx.blocks_skipped_per_q", perMiss(after.BlocksSkipped, before.BlocksSkipped), "count")
	r.layer("searchidx.candidates_pruned_per_q", perMiss(after.CandidatesPruned, before.CandidatesPruned), "count")
	r.layer("searchidx.za_candidates_per_q", perMiss(after.ZACandidates, before.ZACandidates), "count")
}

// layerWAL derives the write-path rows from WAL counter deltas over the
// bulk posts' own turns.
func (r *run) layerWAL(before, after serve.WALCounters, bytes int64, events uint64, active []time.Duration) {
	var total time.Duration
	for _, a := range active {
		total += a
	}
	secs := total.Seconds() / float64(len(active))
	commits := after.Commits - before.Commits
	if commits == 0 || events == 0 || secs == 0 {
		return
	}
	r.layer("wal.records_per_commit", float64(after.Records-before.Records)/float64(commits), "count")
	r.layer("wal.syncs_per_s", float64(after.Syncs-before.Syncs)/secs, "1/s")
	r.layer("wal.bytes_per_event", float64(bytes)/float64(events), "B")
}

// watchReplication samples every node's health each 100 ms until
// stopped, then reports the worst follower lag and leader window seen.
func (r *run) watchReplication() (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	var lag, window uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			cl := r.s.cluster
			for i := 0; i < cl.Len(); i++ {
				rep := cl.Node(i).Corpus().Health().Replication
				if rep == nil {
					continue
				}
				for _, row := range rep.Shards {
					lag = max(lag, row.LagFrames)
					window = max(window, row.WindowFrames)
				}
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
		r.layer("cluster.lag_frames_max", float64(lag), "count")
		r.layer("cluster.window_frames_max", float64(window), "count")
	}
}

// frontDoorOverhead is the rank p50 through node 0's front door minus
// the p50 straight at its API.
func (r *run) frontDoorOverhead(pools [][]rankReq) error {
	api := strings.TrimPrefix(r.s.cluster.APIURL(0), "http://")
	p50, _, err := pairedReplay([]string{r.s.addr, api}, rankWires(pools), 8000, nil, "")
	if err != nil {
		return err
	}
	r.layer("cluster.frontdoor_rank_overhead_us", p50[0]-p50[1], "us")
	return nil
}

func rankWires(pools [][]rankReq) [][][]byte {
	wires := make([][][]byte, len(pools))
	for cl, pool := range pools {
		for _, rq := range pool {
			wires[cl] = append(wires[cl], rq.wire)
		}
	}
	return wires
}

// pairedReplay replays total requests against each address, in ten
// alternating chunks so that every address meets the same machine
// states, and returns each address's p50 latency in microseconds and
// completion rate. With a tracer, the last address's requests leave
// spans named name.
func pairedReplay(addrs []string, wires [][][]byte, total int, tr *tracer, name string) (p50us, perSec []float64, err error) {
	const chunks = 10
	lats := make([][]int64, len(addrs))
	busy := make([]time.Duration, len(addrs))
	for c := 0; c < chunks; c++ {
		for i, addr := range addrs {
			var t *tracer
			if i == len(addrs)-1 {
				t = tr
			}
			t0 := time.Now()
			lat, err := socketReplay(addr, wires, total/chunks, c*total/chunks, t, name)
			if err != nil {
				return nil, nil, err
			}
			busy[i] += time.Since(t0)
			lats[i] = append(lats[i], lat...)
		}
	}
	for i, lat := range lats {
		sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
		p50us = append(p50us, float64(percentile(lat, 0.5))/1e3)
		perSec = append(perSec, float64(total)/busy[i].Seconds())
	}
	return p50us, perSec, nil
}

// socketReplay sends count requests (split among one client per wire
// list, each cycling its own list from offset) on fresh connections and
// returns their latencies, less the first tenth, which warms the
// connections. Any non-200 is an error: this is a probe, not a
// workload.
func socketReplay(addr string, wires [][][]byte, count, offset int, tr *tracer, name string) ([]int64, error) {
	clients := len(wires)
	lats := make([][]int64, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			c, err := dial(addr)
			if err != nil {
				errs[cl] = err
				return
			}
			defer c.close()
			n := count / clients
			lat := make([]int64, 0, n)
			for i := 0; i < n; i++ {
				a := time.Now()
				status, body, err := c.roundTrip(wires[cl][(offset+i)%len(wires[cl])])
				b := time.Now()
				if err != nil || status != http.StatusOK {
					errs[cl] = fmt.Errorf("replay %s: status %d, %v: %.120s", addr, status, err, body)
					return
				}
				if tr != nil {
					tr.end(tr.begin(name, -1, reqID(cl, offset+i), a), b)
				}
				lat = append(lat, int64(b.Sub(a)))
			}
			lats[cl] = lat[n/10:]
		}(cl)
	}
	wg.Wait()
	var all []int64
	for cl := range lats {
		if errs[cl] != nil {
			return nil, errs[cl]
		}
		all = append(all, lats[cl]...)
	}
	return all, nil
}

// timeEach calls fn n times and returns the median duration of one call
// in microseconds.
func timeEach(n int, fn func(i int)) float64 {
	d := make([]int64, n)
	for i := range d {
		t := time.Now()
		fn(i)
		d[i] = int64(time.Since(t))
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return float64(percentile(d, 0.5)) / 1e3
}

// timeMean calls fn n times and returns the mean duration of one call
// in microseconds: for calls too short to time one by one.
func timeMean(n int, fn func(i int)) float64 {
	t := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t)) / 1e3 / float64(n)
}

// memWriter is the smallest http.ResponseWriter: the in-process replay
// needs the handler's work, not a recorder's.
type memWriter struct {
	h      http.Header
	status int
	body   []byte
}

func (w *memWriter) Header() http.Header { return w.h }
func (w *memWriter) WriteHeader(s int)   { w.status = s }
func (w *memWriter) Write(p []byte) (int, error) {
	w.body = append(w.body, p...)
	return len(p), nil
}

const replayRequests = 20000

// probeSuite times each layer on a fresh in-memory deck-20k and fills in
// every per-layer row that does not depend on the workload's traffic.
func (r *run) probeSuite(openLoop time.Duration) error {
	pages := genPages(r.seed, deckPages)
	s, err := setupSingle(pages, r.seed, "")
	if err != nil {
		return err
	}
	defer s.close()
	hot, cold := genHotQueries(r.seed), genColdQueries(r.seed)
	var pools [][]rankReq
	for cl := 0; cl < r.clients; cl++ {
		pools = append(pools, genRankReqs(r.seed, cl, hot, rankPool))
	}
	wires := rankWires(pools)

	// net: the same 20,000 requests against the control, a handler that
	// does nothing, and over the socket against the service.
	p50, rate, err := pairedReplay([]string{r.ctlAddr, s.addr}, wires, replayRequests, r.tr, "replay.socket")
	if err != nil {
		return err
	}
	nullP50, sockP50, sockRate := p50[0], p50[1], rate[1]
	r.layer("net.null_p50_us", nullP50, "us")

	// The same requests through ServeHTTP in-process and through
	// RankUnitSeeded. Self time is outer minus inner.
	srv := serve.NewServer(s.corpus)
	flat := pools[0]
	mw := &memWriter{h: http.Header{}}
	var bodyReader bytes.Reader
	httpReq, _ := http.NewRequest(http.MethodPost, "/v1/rank", nil)
	httpUS := timeEach(replayRequests, func(i int) {
		rq := &flat[i%len(flat)]
		bodyReader.Reset(rq.wire[bytes.Index(rq.wire, []byte("\r\n\r\n"))+4:])
		httpReq.Body = io.NopCloser(&bodyReader)
		mw.body = mw.body[:0]
		clear(mw.h)
		srv.ServeHTTP(mw, httpReq)
	})
	if mw.status != 0 && mw.status != http.StatusOK {
		return fmt.Errorf("in-process replay: status %d: %.120s", mw.status, mw.body)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rankUS := timeEach(replayRequests, func(i int) {
		rq := &flat[i%len(flat)]
		_, _, _ = s.corpus.RankUnitSeeded(rq.unit, rq.query, rankN, rq.seed)
	})
	runtime.ReadMemStats(&m1)
	r.layer("net.rank_hot_p50_us", sockP50, "us")
	r.layer("net.unexplained_us", sockP50-nullP50-httpUS, "us")
	r.layer("serve.http_rank_us", httpUS, "us")
	r.layer("serve.http_self_us", httpUS-rankUS, "us")
	r.layer("serve.rank_hot_us", rankUS, "us")
	r.layer("serve.rank_allocs", float64(m1.Mallocs-m0.Mallocs)/replayRequests, "count")

	var seed uint64
	r.layer("serve.rank_cold_us", timeEach(len(cold), func(i int) {
		seed++
		_, _, _ = s.corpus.RankUnitSeeded("u1", cold[i], rankN, seed)
	}), "us")

	// The batch and feedback codecs.
	batch := genBatchReqs(r.seed, 0, hot, 1)[0]
	batchBody := batch.wire[bytes.Index(batch.wire, []byte("\r\n\r\n"))+4:]
	resps := make([]serve.RankResponse, batchSubs)
	for i, sub := range batch.subs {
		res, arm, _ := s.corpus.RankUnitSeeded(sub.unit, sub.query, rankN, sub.seed)
		resps[i].Arm = arm
		for slot, it := range res {
			resps[i].Results = append(resps[i].Results, serve.RankedItem{Slot: slot + 1, ID: it.ID, Popularity: it.Popularity, Promoted: it.Promoted})
		}
	}
	var out []byte
	r.layer("serve.batch_codec_us", timeMean(2000, func(int) {
		_, _ = serve.DecodeRankBatchRequest(batchBody)
		out = serve.AppendRankBatchResponse(out[:0], resps)
	})/batchSubs, "us")
	post := genBulkPosts(r.seed, 0, deckPages, 1)[0]
	postBody := post.wire[bytes.Index(post.wire, []byte("\r\n\r\n"))+4:]
	events, err := serve.DecodeFeedbackBatchRequest(postBody)
	if err != nil {
		return err
	}
	r.layer("serve.feedback_codec_us", timeMean(500, func(int) {
		_, _ = serve.DecodeFeedbackBatchRequest(postBody)
	})/bulkEvents, "us")

	// searchidx on an index built from the same documents.
	ix := searchidx.NewIndex()
	ix.SetPopFunc(func(id uint32) float64 { return pages[id].pop })
	for _, p := range pages {
		if err := ix.Add(searchidx.Document{ID: p.id, Text: p.text}); err != nil {
			return err
		}
	}
	snap := ix.Snapshot()
	var ids []uint32
	r.layer("searchidx.retrieve_us", timeEach(len(cold), func(i int) {
		ids = snap.RetrieveInto(ids[:0], cold[i])
	}), "us")
	top := make([]float64, 0, rankN)
	r.layer("searchidx.pruned_us", timeEach(len(cold), func(i int) {
		// A top-n selection by popularity, the way the serving layer
		// drives the pruned scan: skip a block once n candidates are held
		// and the block's bound cannot beat the weakest of them.
		top = top[:0]
		snap.RetrievePruned(cold[i],
			func(upper float64) bool { return len(top) == rankN && upper <= top[rankN-1] },
			func(ids []uint32) {
				for _, id := range ids {
					pop := pages[id].pop
					if len(top) == rankN && pop <= top[rankN-1] {
						continue
					}
					if len(top) < rankN {
						top = append(top, pop)
					} else {
						top[rankN-1] = pop
					}
					for j := len(top) - 1; j > 0 && top[j] > top[j-1]; j-- {
						top[j], top[j-1] = top[j-1], top[j]
					}
				}
			})
	}), "us")

	// policy: the Section 4 merge on a hot request's shapes.
	det, pool := make(policy.Slice, rankN), make(policy.Slice, 128)
	for i := range det {
		det[i] = i
	}
	for i := range pool {
		pool[i] = 1000 + i
	}
	var sc policy.Scratch
	rng := randutil.New(r.seed)
	r.layer("policy.merge_us", timeMean(200000, func(int) {
		sc.MergeTagged(&det, &pool, 1, 0.1, rng)
	}), "us")

	// rankengine: one shard's treap.
	perShard := deckPages / deckShards
	tr := rankengine.New(r.seed)
	for i := 0; i < perShard; i++ {
		tr.Insert(rankengine.Entry{ID: i, Popularity: pages[i].pop, BirthDay: i})
	}
	r.layer("rankengine.update_us", timeMean(100000, func(i int) {
		id := rng.Intn(perShard)
		tr.Update(rankengine.Entry{ID: id, Popularity: pages[id].pop + float64(i), BirthDay: id})
	}), "us")
	var entries []rankengine.Entry
	r.layer("rankengine.topk_us", timeMean(20000, func(int) {
		entries = tr.TopK(128, entries[:0])
	}), "us")

	// wal: a log of its own, fsync=batch, on the output filesystem.
	dir, err := r.tempDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, _, err := wal.Open(dir, wal.Options{Fsync: wal.FsyncBatch})
	if err != nil {
		return err
	}
	payload := bytes.Repeat([]byte{7}, 16)
	var walErr error
	commit := func(records int) func(int) {
		return func(int) {
			for j := 0; j < records; j++ {
				if _, err := log.Append(payload); err != nil {
					walErr = err
				}
			}
			if err := log.Commit(); err != nil {
				walErr = err
			}
		}
	}
	r.layer("wal.append_commit_us", timeEach(200, commit(128)), "us")
	r.layer("wal.fsync_p50_us", timeEach(200, commit(1)), "us")
	if err := log.Close(); err != nil {
		walErr = err
	}
	if walErr != nil {
		return fmt.Errorf("wal probe: %w", walErr)
	}

	// An open loop at half the closed-loop rate: requests are due on a
	// schedule and timed from when they were due, so a stall charges the
	// requests queued behind it; lateness is how far behind schedule the
	// generator itself ran.
	openP99, lateP99, err := openLoop50(s.addr, wires, sockRate/2, openLoop)
	if err != nil {
		return err
	}
	r.layer("loadgen.open_p99_us", openP99, "us")
	r.layer("loadgen.late_p99_us", lateP99, "us")

	// Feedback through the corpus API, last because it rewrites the
	// probe corpus: one call per 1,024 events, applied and published.
	var fbErr error
	r.layer("serve.feedback_call_us", timeEach(200, func(int) {
		if err := s.corpus.Feedback(events); err != nil {
			fbErr = err
		}
		s.corpus.Sync()
	}), "us")
	return fbErr
}

// openLoop50 sends rank requests on a fixed schedule for dur and returns
// the p99 latency from due time and the p99 generator lateness.
func openLoop50(addr string, wires [][][]byte, perSec float64, dur time.Duration) (p99us, lateP99us float64, err error) {
	clients := len(wires)
	gap := time.Duration(float64(time.Second) * float64(clients) / perSec)
	lats, lates := make([][]int64, clients), make([][]int64, clients)
	errs := make([]error, clients)
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			c, err := dial(addr)
			if err != nil {
				errs[cl] = err
				return
			}
			defer c.close()
			// Clients interleave: client cl owns every clients-th slot.
			first := start.Add(gap * time.Duration(cl) / time.Duration(clients))
			for i := 0; ; i++ {
				due := first.Add(gap * time.Duration(i))
				if due.Sub(start) > dur {
					return
				}
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				status, body, err := c.roundTrip(wires[cl][i%len(wires[cl])])
				if err != nil || status != http.StatusOK {
					errs[cl] = fmt.Errorf("open loop: status %d, %v: %.120s", status, err, body)
					return
				}
				lats[cl] = append(lats[cl], int64(time.Since(due)))
				lates[cl] = append(lates[cl], int64(sent.Sub(due)))
			}
		}(cl)
	}
	wg.Wait()
	var lat, late []int64
	for cl := range lats {
		if errs[cl] != nil {
			return 0, 0, errs[cl]
		}
		lat = append(lat, lats[cl]...)
		late = append(late, lates[cl]...)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	return float64(percentile(lat, 0.99)) / 1e3, float64(percentile(late, 0.99)) / 1e3, nil
}

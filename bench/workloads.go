package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/serve"
)

// The five workloads. Each isolates one part of the system in its main
// kind of operation; its side kinds report the remaining end-to-end
// metrics on the same system, so every run yields every metric (the
// driver compares a metric per workload) and each optimisation has a
// workload that exercises it and one that bypasses it. Why each exists
// is in BENCHMARK.json and README.md.
var workloads = []struct {
	name string
	run  func(*run) error
}{
	{"rank-hot", (*run).rankHot},
	{"rank-cold", (*run).rankCold},
	{"live-loop", (*run).liveLoop},
	{"ingest-durable", (*run).ingestDurable},
	{"cluster-quorum", (*run).clusterQuorum},
}

// run is one workload run: its inputs, the system it built and what it
// measured.
type run struct {
	workload string
	seed     uint64
	window   time.Duration // total measured time, split among the legs
	clients  int
	setups   int    // how many times set-up is repeated for its median
	outDir   string // where data directories and traces go
	tr       *tracer
	probes   bool // traced run: also take the measurements only per-layer rows need

	pages   []page
	s       *sut
	tal     tally
	ctlAddr string      // the control server
	control []*recorder // its samples, all windows of the run

	metrics map[string]metric
	raw     map[string]metric // the timings before the machine-state correction
	samples map[string]int    // sample count behind each timing
	layers  map[string]metric
	notes   []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *run) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

func (r *run) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// mix opens a window over the given share of the run's measured time,
// in whole turns.
func (r *run) mix(share float64, quiescent bool) *mix {
	d := time.Duration(float64(r.window)*share) / turnDur * turnDur
	if d < turnDur {
		d = turnDur
	}
	return &mix{s: r.s, clients: r.clients, dur: d, tal: &r.tal, tr: r.tr, quiescent: quiescent}
}

// tempDir makes a data directory under the output directory: on the
// repository's filesystem, never a tmpfs /tmp.
func (r *run) tempDir() (string, error) {
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(r.outDir, "data-")
}

// setup builds the system r.setups times, keeps the last and reports
// the median build time and the heap it left behind.
func (r *run) setup(build func() (*sut, error)) error {
	var secs []float64
	for i := 0; i < r.setups; i++ {
		if r.s != nil {
			r.s.close()
			r.s = nil
		}
		t0 := time.Now()
		s, err := build()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		r.s = s
	}
	r.set("setup_s", median(secs), "s")
	r.set("mem_after_setup_mb", heapMB(), "MB")
	r.layer("searchidx.add_us", r.s.addUS, "us")
	return nil
}

func (r *run) setupDeck(durable bool) error {
	r.pages = genPages(r.seed, deckPages)
	return r.setup(func() (*sut, error) {
		dir := ""
		if durable {
			var err error
			if dir, err = r.tempDir(); err != nil {
				return nil, err
			}
		}
		return setupSingle(r.pages, r.seed, dir)
	})
}

// pools pre-encodes every client's rank and batch requests. The hot set
// is shared by all clients — that is what makes it hot; the cold cycle
// is split among them.
func (r *run) pools(queries []string, shared bool) (ranks [][]rankReq, batches [][]batchReq) {
	for cl := 0; cl < r.clients; cl++ {
		own := queries
		if !shared {
			own = clientShare(queries, cl, r.clients)
		}
		ranks = append(ranks, genRankReqs(r.seed, cl, own, rankPool))
		batches = append(batches, genBatchReqs(r.seed, cl, own, batchPool))
	}
	return ranks, batches
}

func (r *run) bulkPools(pages int) (pools [][]bulkPost) {
	for cl := 0; cl < r.clients; cl++ {
		pools = append(pools, genBulkPosts(r.seed, cl, pages, bulkPool))
	}
	return pools
}

// hitRatio is the query cache's hit share between two samples.
func hitRatio(before, after serve.StatsResponse) float64 {
	hits := after.QueryCacheHits - before.QueryCacheHits
	misses := after.QueryCacheMisses - before.QueryCacheMisses
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// reportRank, reportBatch and reportFeedback turn a leg's summary into
// the end-to-end metrics it owns.
func (r *run) reportRank(s summary, rate bool) {
	r.set("rank_p50_us", s.p50us, "us")
	r.samples["rank_p50_us"] = s.samples
	if rate {
		r.set("rank_per_s", s.perSec, "1/s")
		r.samples["rank_per_s"] = s.samples
	}
	r.layer("loadgen.rank_p99_us", s.p99us, "us")
	r.layer("loadgen.rank_tail_us", s.tailus, "us")
	r.notef("rank: %s", s)
}

func (r *run) reportBatch(s summary, rate bool) {
	r.set("batch_p50_us", s.p50us, "us")
	r.samples["batch_p50_us"] = s.samples
	if rate {
		r.set("rank_per_s", s.perSec, "1/s")
		r.samples["rank_per_s"] = s.samples
	}
	r.notef("batch: %s", s)
}

func (r *run) reportFeedback(s summary) {
	r.set("feedback_events_per_s", s.perSec, "1/s")
	r.set("feedback_ack_p50_us", s.p50us, "us")
	r.samples["feedback_events_per_s"] = s.samples
	r.samples["feedback_ack_p50_us"] = s.samples
	r.layer("loadgen.ack_p99_us", s.p99us, "us")
	r.layer("loadgen.ack_tail_us", s.tailus, "us")
	r.notef("feedback: %s", s)
}

// checkApplied requires, after a Sync, that what the corpus applied is
// exactly what the service acknowledged, with nothing dropped.
func (r *run) checkApplied(c *serve.Corpus, who string, want acked) {
	c.Sync()
	st := c.Stats()
	r.tal.assert(st.ImpressionsApplied == want.impressions && st.ClicksApplied == want.clicks,
		"%s applied %d impressions / %d clicks, acknowledged %d / %d", who, st.ImpressionsApplied, st.ClicksApplied, want.impressions, want.clicks)
	r.tal.assert(st.Dropped == 0, "%s dropped %d events", who, st.Dropped)
}

// measure runs the schedule, plus one control turn per cycle, between
// two /v1/stats samples.
func (r *run) measure(m *mix, ranks [][]rankReq, schedule ...*kind) (before, after serve.StatsResponse, err error) {
	nk, err := m.nullKind(r.ctlAddr, ranks)
	if err != nil {
		return
	}
	if before, err = r.s.stats(); err != nil {
		return
	}
	if err = m.run(append(schedule, nk)...); err != nil {
		return
	}
	r.control = append(r.control, nk.rank...)
	after, err = r.s.stats()
	return
}

// normalize restates the latency and rate metrics at the nominal machine
// state, keeping the raw values.
func (r *run) normalize() {
	factor, p50, n := machineFactor(r.control)
	r.notef("control: null round trip p50 %.2fus (n=%d), machine factor %.3f against the nominal %.0fus", p50, n, factor, nullNominalUS)
	r.raw = map[string]metric{"null_p50_us": {p50, "us"}}
	for name, m := range r.metrics {
		switch m.Unit {
		case "us":
			r.raw[name] = m
			r.metrics[name] = metric{m.Value / factor, m.Unit}
		case "1/s":
			r.raw[name] = m
			r.metrics[name] = metric{m.Value * factor, m.Unit}
		}
	}
}

func (r *run) rankHot() error {
	if err := r.setupDeck(false); err != nil {
		return err
	}
	ranks, batches := r.pools(genHotQueries(r.seed), true)
	m := r.mix(0.75, true)
	rk, bk := m.rankKind(ranks), m.batchKind(batches)
	before, after, err := r.measure(m, ranks, rk, rk, bk)
	if err != nil {
		return err
	}
	ratio := hitRatio(before, after)
	r.tal.assert(ratio >= 0.99, "rank-hot: cache hit ratio %.4f, want >= 0.99", ratio)
	r.layerWindow(before, after, m.dur)
	r.reportRank(summarize(rk.rank, rk.active), true)
	r.reportBatch(summarize(bk.batch, bk.active), false)
	return r.sideLoop(0.25, ranks)
}

func (r *run) rankCold() error {
	if err := r.setupDeck(false); err != nil {
		return err
	}
	cold := genColdQueries(r.seed)
	match := meanMatchSet(r.pages, cold[:256])
	r.tal.assert(match >= 500, "rank-cold: mean match set %.0f pages, want >= 500", match)
	r.notef("mean match set %.0f pages", match)
	ranks, batches := r.pools(cold, false)
	m := r.mix(0.75, true)
	rk, bk := m.rankKind(ranks), m.batchKind(batches)
	before, after, err := r.measure(m, ranks, bk, bk, rk)
	if err != nil {
		return err
	}
	ratio := hitRatio(before, after)
	r.tal.assert(ratio <= 0.10, "rank-cold: cache hit ratio %.4f, want <= 0.10", ratio)
	r.notef("cache hit ratio %.4f (hits %d misses %d)", ratio, after.QueryCacheHits-before.QueryCacheHits, after.QueryCacheMisses-before.QueryCacheMisses)
	r.layerWindow(before, after, m.dur)
	r.reportBatch(summarize(bk.batch, bk.active), true)
	r.reportRank(summarize(rk.rank, rk.active), false)
	return r.sideLoop(0.25, ranks)
}

// sideLoop ends the read-only workloads with the feedback metrics: the
// paper's loop over the workload's own queries. It runs last and on its
// own, because one applied batch would end "read-only". (Bulk posts
// would not do here: in memory a 202 only means "queued", so a closed
// loop of 1,024-event posts outruns the apply loops and collects 429s.)
func (r *run) sideLoop(share float64, ranks [][]rankReq) error {
	m := r.mix(share, false)
	lk, err := m.loopKind(ranks, r.seed)
	if err != nil {
		return err
	}
	if _, _, err := r.measure(m, ranks, lk, lk, lk); err != nil {
		return err
	}
	r.checkApplied(r.s.corpus, r.workload, lk.ackedTotal())
	r.reportFeedback(summarize(lk.feedback, lk.active))
	return nil
}

func (r *run) liveLoop() error {
	if err := r.setupDeck(false); err != nil {
		return err
	}
	return r.loopAndBatch(func(ack acked) { r.checkApplied(r.s.corpus, "live-loop", ack) })
}

// loopAndBatch is the body live-loop and cluster-quorum share: three
// turns of the paper's loop to one of hot batches, all window long.
func (r *run) loopAndBatch(settle func(acked)) error {
	ranks, batches := r.pools(genHotQueries(r.seed), true)
	m := r.mix(1, false)
	lk, err := m.loopKind(ranks, r.seed)
	if err != nil {
		return err
	}
	bk := m.batchKind(batches)
	before, _, err := r.measure(m, ranks, lk, lk, lk, bk)
	if err != nil {
		return err
	}
	settle(lk.ackedTotal())
	// Sampled again, now that everything acknowledged has been applied.
	after, err := r.s.stats()
	if err != nil {
		return err
	}
	r.tal.assert(sumEpochs(after) > sumEpochs(before), "%s: no shard epoch advanced", r.workload)
	r.tal.assert(after.ZeroAware < before.ZeroAware, "%s: zero-awareness pool did not shrink (%d -> %d)", r.workload, before.ZeroAware, after.ZeroAware)
	r.notef("zero-aware pages %d -> %d, cache hit ratio %.3f", before.ZeroAware, after.ZeroAware, hitRatio(before, after))
	r.layerWindow(before, after, m.dur)
	r.reportRank(summarize(lk.rank, lk.active), true)
	r.reportFeedback(summarize(lk.feedback, lk.active))
	r.reportBatch(summarize(bk.batch, bk.active), false)
	return nil
}

func (r *run) ingestDurable() error {
	if err := r.setupDeck(true); err != nil {
		return err
	}
	r.notef("data directory on %s", fsType(r.s.dir))
	ranks, batches := r.pools(genHotQueries(r.seed), true)
	m := r.mix(1, false)
	gk, rk, bk := m.bulkKind(r.bulkPools(len(r.pages))), m.rankKind(ranks), m.batchKind(batches)
	walBefore, bytesBefore := r.s.corpus.WALCounters(), dirBytes(r.s.dir)
	before, after, err := r.measure(m, ranks, gk, gk, rk, bk)
	if err != nil {
		return err
	}
	ack := gk.ackedTotal()
	r.checkApplied(r.s.corpus, "ingest-durable", ack)
	r.layerWindow(before, after, m.dur)
	r.layerWAL(walBefore, r.s.corpus.WALCounters(), dirBytes(r.s.dir)-bytesBefore, ack.events, gk.active)
	r.reportFeedback(summarize(gk.feedback, gk.active))
	r.reportRank(summarize(rk.rank, rk.active), true)
	r.reportBatch(summarize(bk.batch, bk.active), false)

	// Acked implies durable implies recovered: kill the corpus the way a
	// crash would and boot a new one from the directory.
	_ = r.s.srv.Close()
	r.s.corpus.Kill()
	t0 := time.Now()
	rec, err := serve.NewCorpus(serve.Config{Shards: deckShards, Seed: r.seed, QueueLen: feedbackQueue,
		Durability: serve.Durability{DataDir: r.s.dir, FsyncMode: "batch", SnapshotInterval: -1}})
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	secs := time.Since(t0).Seconds()
	st := rec.Stats()
	r.tal.assert(st.ImpressionsApplied == ack.impressions && st.ClicksApplied == ack.clicks,
		"recovered %d impressions / %d clicks, acknowledged %d / %d", st.ImpressionsApplied, st.ClicksApplied, ack.impressions, ack.clicks)
	r.tal.assert(st.Pages == len(r.pages), "recovered %d pages of %d", st.Pages, len(r.pages))
	r.layer("store.recovery_s", secs, "s")
	r.layer("store.recovery_events_per_s", float64(ack.events)/secs, "1/s")
	r.notef("recovery: %d pages, %d WAL records in %.3fs", st.Pages, rec.Recovery().RecordsReplayed, secs)
	// The sut's close kills its corpus; hand it the recovered one.
	r.s.corpus = rec
	return nil
}

func (r *run) clusterQuorum() error {
	r.pages = genPages(r.seed, clusterPages)
	err := r.setup(func() (*sut, error) {
		dir, err := r.tempDir()
		if err != nil {
			return nil, err
		}
		return setupCluster(r.pages, r.seed, dir)
	})
	if err != nil {
		return err
	}
	r.notef("data directories on %s; no injected delay: latency here is processor plus loopback time", fsType(r.s.dir))
	if r.probes {
		ranks, _ := r.pools(genHotQueries(r.seed), true)
		if err := r.frontDoorOverhead(ranks); err != nil {
			return err
		}
	}
	stop := r.watchReplication()
	defer stop()
	return r.loopAndBatch(func(ack acked) {
		t0 := time.Now()
		cl := r.s.cluster
		if err := cl.WaitConverged(30 * time.Second); err != nil {
			r.tal.assert(false, "cluster-quorum: %v", err)
		}
		r.layer("cluster.converge_ms", float64(time.Since(t0))/1e6, "ms")
		for i := 0; i < cl.Len(); i++ {
			r.checkApplied(cl.Node(i).Corpus(), "node "+cl.Node(i).ID(), ack)
		}
	})
}

// dirBytes totals the regular files under dir.
func dirBytes(dir string) (n int64) {
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}

// sortedNames lists a metric map's names in order, for stable output.
func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

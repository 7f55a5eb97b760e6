package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
)

// sut is one system under test: a corpus (or a cluster of them) behind
// a real loopback TCP listener.
type sut struct {
	addr    string        // where clients dial
	corpus  *serve.Corpus // the corpus behind addr (node 0's in a cluster)
	cluster *cluster.Cluster
	srv     *http.Server
	dir     string // data directory, "" in memory
	addUS   float64
}

// newHTTPServer mirrors cmd/shuffledeckd's default timeouts, so the
// per-request deadline bookkeeping a daemon user pays is in the numbers.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// serveOn starts srv on a fresh loopback port.
func serveOn(srv *http.Server) (addr string, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	go func() { _ = srv.Serve(ln) }() // returns when srv is closed
	return ln.Addr().String(), nil
}

// feedbackQueue sizes each shard's feedback queue for the in-memory
// loop. In memory a 202 means "queued", so nothing paces a closed loop of
// 20-event posts but the queue itself: at the default 64 batches each
// shard has about 3.5 ms of slack at this rate, and one apply goroutine
// preempted for longer — routine on a shared box — surfaces as a burst
// of 429s (seen in 1 run of 60). A shipper of small batches sizes its
// queue for its rate; 1,024 gives the loop ~60 ms.
const feedbackQueue = 1024

// setupSingle builds the reference corpus on one node: default policy
// (selective, k=1, r=0.1), default query cache, deckShards shards. A
// non-empty dataDir makes it durable with fsync=batch and periodic
// snapshots off, so no snapshot lands in the middle of a window.
func setupSingle(pages []page, seed uint64, dataDir string) (*sut, error) {
	cfg := serve.Config{Shards: deckShards, Seed: seed, QueueLen: feedbackQueue}
	if dataDir != "" {
		cfg.Durability = serve.Durability{DataDir: dataDir, FsyncMode: "batch", SnapshotInterval: -1}
	}
	c, err := serve.NewCorpus(cfg)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	for _, p := range pages {
		if err := c.Add(p.id, p.text, p.pop); err != nil {
			c.Close()
			return nil, err
		}
	}
	addUS := float64(time.Since(t0)) / 1e3 / float64(len(pages))
	c.Sync()
	s := &sut{corpus: c, dir: dataDir, addUS: addUS, srv: newHTTPServer(serve.NewServer(c))}
	if s.addr, err = serveOn(s.srv); err != nil {
		c.Close()
		return nil, err
	}
	return s, nil
}

// setupCluster builds the 3-node cluster with real TCP replication and
// no injected delay; clients talk to node 0's front door.
func setupCluster(pages []page, seed uint64, dataDir string) (*sut, error) {
	cl, err := cluster.New(cluster.Options{
		Nodes:   clusterNodes,
		Shards:  clusterShard,
		DataDir: dataDir,
		Seed:    seed,
		Corpus: func(_ int, cfg *serve.Config) {
			cfg.Durability.FsyncMode = "batch"
			cfg.Durability.SnapshotInterval = -1
		},
	})
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	for _, p := range pages {
		if err := cl.Add(p.id, p.text, p.pop); err != nil {
			cl.Close()
			return nil, err
		}
	}
	addUS := float64(time.Since(t0)) / 1e3 / float64(len(pages))
	if err := cl.WaitConverged(30 * time.Second); err != nil {
		cl.Close()
		return nil, err
	}
	for i := 0; i < cl.Len(); i++ {
		cl.Node(i).Corpus().Sync()
	}
	return &sut{
		addr:    strings.TrimPrefix(cl.FrontDoorURL(0), "http://"),
		corpus:  cl.Node(0).Corpus(),
		cluster: cl,
		dir:     dataDir,
		addUS:   addUS,
	}, nil
}

// close stops the system. A durable single node is killed rather than
// closed: the final snapshot Close writes is of no use to a benchmark
// that is about to delete the directory.
func (s *sut) close() {
	switch {
	case s.cluster != nil:
		s.cluster.Close()
	case s.dir != "":
		_ = s.srv.Close()
		s.corpus.Kill()
	default:
		_ = s.srv.Close()
		s.corpus.Close()
	}
	if s.dir != "" {
		_ = os.RemoveAll(s.dir)
	}
}

// stats fetches /v1/stats over the socket: the public counters,
// including the server-side 429/503 tallies the corpus does not carry.
func (s *sut) stats() (serve.StatsResponse, error) {
	var st serve.StatsResponse
	c, err := dial(s.addr)
	if err != nil {
		return st, err
	}
	defer c.close()
	status, body, err := c.roundTrip([]byte("GET /v1/stats HTTP/1.1\r\nHost: bench\r\n\r\n"))
	if err != nil {
		return st, fmt.Errorf("GET /v1/stats: %w", err)
	}
	if status != http.StatusOK {
		return st, fmt.Errorf("GET /v1/stats: status %d", status)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return st, fmt.Errorf("GET /v1/stats: %w", err)
	}
	return st, nil
}

func sumEpochs(st serve.StatsResponse) (sum uint64) {
	for _, e := range st.Epochs {
		sum += e
	}
	return sum
}

// heapMB is HeapAlloc after a double collection: the first pass queues
// finalizers and returns pooled buffers, the second frees what they held.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

package main

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/attention"
	"repro/internal/randutil"
	"repro/internal/serve"
)

// The load model. Closed loop: every client owns one persistent
// keep-alive connection and sends its next request only after the
// previous reply arrived and was checked — the callers are a front-end
// tier and a click-log shipper that each wait for their answer. No
// retries: a non-2xx, a 429 or a transport error is a failed operation.
//
// A window time-multiplexes several operation kinds in quarter-second
// turns (rank, rank, batch, rank, rank, batch, ...). On a shared
// machine whose speed drifts by a quarter over seconds, a kind measured
// in one contiguous stretch reports the weather of that stretch; turns
// expose every kind to the whole window. Within a turn only one kind
// runs, so each still measures its own path.

// tally counts operations against operations attempted. A wrong answer
// is a failed operation too, and additionally marks the run incorrect.
type tally struct {
	succeeded atomic.Int64 // added to in bulk, when a client's loop returns
	mu        sync.Mutex
	failed    int
	incorrect int
	errs      []string // the first few, for the report
}

func (t *tally) attempted() int { return int(t.succeeded.Load()) + t.failed }

func (t *tally) fail(wrong bool, format string, args ...any) {
	t.mu.Lock()
	t.failed++
	if wrong {
		t.incorrect++
	}
	if len(t.errs) < 5 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
}

// assert records a failed workload-shape or end-state assertion.
func (t *tally) assert(cond bool, format string, args ...any) {
	if cond {
		return
	}
	t.mu.Lock()
	t.incorrect++
	if len(t.errs) < 12 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
}

// turnDur is how long one kind holds the connection before the schedule
// moves on.
const turnDur = 250 * time.Millisecond

// refChecks is how many of a kind's first replies (they fall in the
// warm-up) are compared id for id with Corpus.RankUnitSeeded.
const refChecks = 1000

// traceEvery samples the traced window: recording every operation of a
// 50,000-a-second loop would make the trace, not the service, the
// workload.
const traceEvery = 8

// acked totals what the service acknowledged with a 202.
type acked struct {
	events, impressions, clicks uint64
}

func (a *acked) add(b acked) {
	a.events += b.events
	a.impressions += b.impressions
	a.clicks += b.clicks
}

// kind is one operation kind and what each client measured of it.
type kind struct {
	name string
	// do performs client cl's i-th operation of this kind.
	do func(cl int, c *conn, i int)
	// Per client: samples by metric family, wall time spent in the
	// kind's turns inside the window, acknowledged feedback, operations
	// that succeeded, operations performed so far.
	rank, batch, feedback []*recorder
	active                []time.Duration
	acks                  []acked
	ok                    []int64
	seq                   []int
}

func (k *kind) ackedTotal() (t acked) {
	for _, a := range k.acks {
		t.add(a)
	}
	return t
}

// mix runs a schedule of kinds against one system for one window.
type mix struct {
	s          *sut
	clients    int
	dur        time.Duration
	tal        *tally
	tr         *tracer // nil = tracing off
	quiescent  bool    // nobody writes during the window: the strict rank checks apply
	start, end time.Time
	cleanup    []func() // run when the window has closed
}

func (m *mix) newKind(name string) *kind {
	k := &kind{name: name, active: make([]time.Duration, m.clients), acks: make([]acked, m.clients), ok: make([]int64, m.clients), seq: make([]int, m.clients)}
	for _, recs := range []*[]*recorder{&k.rank, &k.batch, &k.feedback} {
		*recs = make([]*recorder, m.clients)
		for i := range *recs {
			(*recs)[i] = &recorder{}
		}
	}
	return k
}

// inWindow reports whether an operation counts as a sample.
func (m *mix) inWindow(t0, t1 time.Time) bool { return !t0.Before(m.start) && !t1.After(m.end) }

// run dials one connection per client and cycles every client through
// the schedule, one entry per turn, from one warm-up cycle before the
// window opens until it closes.
func (m *mix) run(schedule ...*kind) error {
	conns := make([]*conn, m.clients)
	for i := range conns {
		c, err := dial(m.s.addr)
		if err != nil {
			for _, open := range conns[:i] {
				open.close()
			}
			return err
		}
		conns[i] = c
	}
	// Every kind gets one unrecorded turn first, so caches fill and
	// connections, goroutines and buffers reach steady state.
	origin := time.Now()
	m.start = origin.Add(time.Duration(len(schedule)) * turnDur)
	m.end = m.start.Add(m.dur)
	var wg sync.WaitGroup
	for cl := range conns {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			c := conns[cl]
			defer c.close()
			for prev := time.Now(); prev.Before(m.end); {
				k := schedule[int(prev.Sub(origin)/turnDur)%len(schedule)]
				k.do(cl, c, k.seq[cl])
				k.seq[cl]++
				now := time.Now()
				if m.inWindow(prev, now) {
					k.active[cl] += now.Sub(prev)
				}
				prev = now
			}
		}(cl)
	}
	wg.Wait()
	for _, f := range m.cleanup {
		f()
	}
	seen := map[*kind]bool{}
	for _, k := range schedule {
		if seen[k] {
			continue
		}
		seen[k] = true
		for _, ok := range k.ok {
			m.tal.succeeded.Add(ok)
		}
	}
	return nil
}

func (m *mix) traced(req uint64) bool { return m.tr != nil && req%traceEvery == 0 }

// exchange performs one timed request/reply on c, re-dialling after a
// transport error so one broken connection costs one failed operation,
// not the rest of the window. On a traced operation it opens the
// operation's root span and records the write and the wait for the
// reply under it; the caller closes the root with checked.
func (m *mix) exchange(c *conn, name string, req uint64, wire []byte) (root int, t0, t1 time.Time, status int, body []byte, err error) {
	root = -1
	if m.traced(req) {
		t0 = time.Now()
		root = m.tr.begin(name, -1, req, t0)
		w := m.tr.begin(name+".write", root, req, t0)
		err = c.send(wire)
		t1 = time.Now()
		m.tr.end(w, t1)
		if err == nil {
			a := m.tr.begin(name+".await", root, req, t1)
			status, body, err = c.recv()
			t1 = time.Now()
			m.tr.end(a, t1)
		}
	} else {
		t0 = time.Now()
		status, body, err = c.roundTrip(wire)
		t1 = time.Now()
	}
	if err != nil {
		c.close()
		if fresh, derr := dial(m.s.addr); derr == nil {
			*c = *fresh
		}
	}
	return root, t0, t1, status, body, err
}

// checked closes a traced operation: the time since the reply arrived
// was spent checking it.
func (m *mix) checked(root int, name string, req uint64, replied time.Time) {
	if root < 0 {
		return
	}
	now := time.Now()
	m.tr.end(m.tr.begin(name+".check", root, req, replied), now)
	m.tr.end(root, now)
}

// answered reports whether the exchange got the wanted status, counting
// it as a failed operation otherwise.
func (m *mix) answered(what string, want, status int, body []byte, err error) bool {
	switch {
	case err != nil:
		m.tal.fail(false, "%s: %v", what, err)
	case status != want:
		m.tal.fail(false, "%s: status %d: %.120s", what, status, body)
	default:
		return true
	}
	return false
}

func reqID(cl, i int) uint64 { return uint64(cl)<<32 | uint64(uint32(i)) }

// nullKind is the control: the same client, the same rank requests, a
// server that does nothing (see control.go). It keeps its own
// connections.
func (m *mix) nullKind(addr string, pools [][]rankReq) (*kind, error) {
	k := m.newKind("null")
	conns := make([]*conn, m.clients)
	m.cleanup = append(m.cleanup, func() {
		for _, c := range conns {
			if c != nil {
				c.close()
			}
		}
	})
	for cl := range conns {
		c, err := dial(addr)
		if err != nil {
			return nil, err
		}
		conns[cl] = c
	}
	k.do = func(cl int, _ *conn, i int) {
		t0 := time.Now()
		status, body, err := conns[cl].roundTrip(pools[cl][i%len(pools[cl])].wire)
		t1 := time.Now()
		if err != nil || status != http.StatusOK || len(body) != len(nullReply) {
			m.tal.fail(err == nil, "control: status %d, %d bytes, %v", status, len(body), err)
			if err != nil {
				conns[cl].close()
				if fresh, derr := dial(addr); derr == nil {
					conns[cl] = fresh
				}
			}
			return
		}
		if m.inWindow(t0, t1) {
			k.rank[cl].add(t1.Sub(t0), 1)
		}
		k.ok[cl]++
	}
	return k, nil
}

// rankKind sends single JSON POST /v1/rank requests from each client's
// pre-encoded pool.
func (m *mix) rankKind(pools [][]rankReq) *kind {
	k := m.newKind("rank")
	items := make([][]rankItem, m.clients)
	k.do = func(cl int, c *conn, i int) {
		r := &pools[cl][i%len(pools[cl])]
		req := reqID(cl, i)
		root, t0, t1, status, body, err := m.exchange(c, "rank", req, r.wire)
		defer m.checked(root, "rank", req, t1)
		if !m.answered("rank", http.StatusOK, status, body, err) {
			return
		}
		if m.inWindow(t0, t1) {
			k.rank[cl].add(t1.Sub(t0), 1)
		}
		items[cl], _, err = parseRank(body, items[cl])
		if err == nil {
			err = checkRank(items[cl], rankN, m.quiescent)
		}
		if err == nil && m.quiescent && i < refChecks/m.clients {
			want, _, rerr := m.s.corpus.RankUnitSeeded(r.unit, r.query, rankN, r.seed)
			if err = rerr; err == nil {
				err = sameIDs(items[cl], want)
			}
		}
		if err != nil {
			m.tal.fail(true, "rank %q: %v", r.query, err)
			return
		}
		k.ok[cl]++
	}
	return k
}

// batchKind sends binary POST /v1/rank/batch calls of batchSubs
// sub-requests. Each batch is one latency sample and batchSubs work
// units.
func (m *mix) batchKind(pools [][]batchReq) *kind {
	k := m.newKind("batch")
	scratch := make([][]rankItem, m.clients)
	k.do = func(cl int, c *conn, i int) {
		b := &pools[cl][i%len(pools[cl])]
		root, t0, t1, status, body, err := m.exchange(c, "batch", reqID(cl, i), b.wire)
		defer m.checked(root, "batch", reqID(cl, i), t1)
		if !m.answered("batch", http.StatusOK, status, body, err) {
			return
		}
		if m.inWindow(t0, t1) {
			k.batch[cl].add(t1.Sub(t0), batchSubs)
		}
		resps, err := checkBatch(body, batchSubs, m.quiescent, scratch[cl])
		if err == nil && m.quiescent && i < refChecks/batchSubs/m.clients {
			for j, sub := range b.subs {
				want, _, rerr := m.s.corpus.RankUnitSeeded(sub.unit, sub.query, rankN, sub.seed)
				if err = rerr; err != nil {
					break
				}
				sc := scratch[cl][:0]
				for _, it := range resps[j].Results {
					sc = append(sc, rankItem{id: it.ID, promoted: it.Promoted})
				}
				scratch[cl] = sc
				if err = sameIDs(sc, want); err != nil {
					break
				}
			}
		}
		if err != nil {
			m.tal.fail(true, "batch: %v", err)
			return
		}
		k.ok[cl]++
	}
	return k
}

// bulkKind sends binary POST /v1/feedback/batch calls of bulkEvents
// events: the click-log shipper. Each post is one ack-latency sample and
// bulkEvents work units.
func (m *mix) bulkKind(pools [][]bulkPost) *kind {
	k := m.newKind("feedback")
	k.do = func(cl int, c *conn, i int) {
		p := &pools[cl][i%len(pools[cl])]
		root, t0, t1, status, body, err := m.exchange(c, "feedback", reqID(cl, i), p.wire)
		defer m.checked(root, "feedback", reqID(cl, i), t1)
		if !m.answered("feedback", http.StatusAccepted, status, body, err) {
			return
		}
		n, err := serve.DecodeFeedbackBatchResponse(body)
		if err != nil || n != p.events {
			m.tal.fail(true, "feedback: accepted %d of %d sent (%v)", n, p.events, err)
			return
		}
		// A post outside the window is no sample, but it was acknowledged
		// and the end-state check must find it applied.
		k.acks[cl].add(acked{uint64(p.events), p.impressions, p.clicks})
		if m.inWindow(t0, t1) {
			k.feedback[cl].add(t1.Sub(t0), p.events)
		}
		k.ok[cl]++
	}
	return k
}

// loopKind is the paper's closed loop. One operation is: two rank
// requests from the hot set; on each list one slot is visited by the
// Section 5.3 attention law and clicked with probability equal to the
// page's quality; one JSON POST /v1/feedback carrying both lists'
// loopEvents slot events.
func (m *mix) loopKind(pools [][]rankReq, seed uint64) (*kind, error) {
	att, err := attention.Default(rankN, float64(rankN))
	if err != nil {
		return nil, err
	}
	k := m.newKind("loop")
	type state struct {
		rng   *randutil.RNG
		items []rankItem
		evs   []byte
		post  []byte
	}
	states := make([]state, m.clients)
	for cl := range states {
		states[cl].rng = randutil.New(seed ^ saltLoop + uint64(cl)*0x9e3779b97f4a7c15)
	}
	k.do = func(cl int, c *conn, i int) {
		st := &states[cl]
		evs := append(st.evs[:0], `{"events":[`...)
		var sent acked
		for list := 0; list < loopEvents/rankN; list++ {
			n := i*(loopEvents/rankN) + list
			r := &pools[cl][n%len(pools[cl])]
			root, t0, t1, status, body, err := m.exchange(c, "rank", reqID(cl, n), r.wire)
			if !m.answered("rank", http.StatusOK, status, body, err) {
				m.checked(root, "rank", reqID(cl, n), t1)
				continue
			}
			if m.inWindow(t0, t1) {
				k.rank[cl].add(t1.Sub(t0), 1)
			}
			var arm []byte
			st.items, arm, err = parseRank(body, st.items)
			if err == nil {
				err = checkRank(st.items, rankN, false)
			}
			m.checked(root, "rank", reqID(cl, n), t1)
			if err != nil {
				m.tal.fail(true, "rank %q: %v", r.query, err)
				continue
			}
			k.ok[cl]++
			visit := att.SampleRank(st.rng)
			for slot, it := range st.items {
				click := 0
				if slot+1 == visit && st.rng.Bernoulli(quality(seed, it.id)) {
					click = 1
				}
				if sent.events > 0 {
					evs = append(evs, ',')
				}
				evs = append(evs, `{"page":`...)
				evs = strconv.AppendInt(evs, int64(it.id), 10)
				evs = append(evs, `,"slot":`...)
				evs = strconv.AppendInt(evs, int64(slot+1), 10)
				evs = append(evs, `,"impressions":1,"clicks":`...)
				evs = strconv.AppendInt(evs, int64(click), 10)
				evs = append(evs, `,"arm":"`...)
				evs = append(evs, arm...)
				evs = append(evs, `","unit":"`...)
				evs = append(evs, r.unit...)
				evs = append(evs, `"}`...)
				sent.events++
				sent.impressions++
				sent.clicks += uint64(click)
			}
		}
		st.evs = evs
		if sent.events == 0 {
			return
		}
		evs = append(evs, `]}`...)
		post := append(st.post[:0], "POST /v1/feedback HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: "...)
		post = strconv.AppendInt(post, int64(len(evs)), 10)
		post = append(post, "\r\n\r\n"...)
		post = append(post, evs...)
		st.post = post
		root, t0, t1, status, body, err := m.exchange(c, "feedback", reqID(cl, i), post)
		defer m.checked(root, "feedback", reqID(cl, i), t1)
		if !m.answered("feedback", http.StatusAccepted, status, body, err) {
			return
		}
		n, err := parseAccepted(body)
		if err != nil || uint64(n) != sent.events {
			m.tal.fail(true, "feedback: accepted %d of %d sent (%v)", n, sent.events, err)
			return
		}
		k.acks[cl].add(sent)
		if m.inWindow(t0, t1) {
			k.feedback[cl].add(t1.Sub(t0), int(sent.events))
		}
		k.ok[cl]++
	}
	return k, nil
}

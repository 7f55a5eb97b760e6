package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/policy"
)

// loopFeedbackBody is the body shape the live loop posts: 20 slot
// events of two result lists, all six fields spelled out, one click.
func loopFeedbackBody(pages int) []byte {
	body := []byte(`{"events":[`)
	for i := 0; i < 20; i++ {
		if i > 0 {
			body = append(body, ',')
		}
		click := 0
		if i == 3 {
			click = 1
		}
		body = fmt.Appendf(body, `{"page":%d,"slot":%d,"impressions":1,"clicks":%d,"arm":"default","unit":"u%d"}`,
			(i*397+11)%pages, 1+i%10, click, 17+i/10)
	}
	return append(body, `]}`...)
}

// Bodies the scanner must take: the docs/api.md examples, what loadgen
// and the benchmarks post (json.Marshal output and hand-appended
// bodies), and the edges of the accepted grammar.
var (
	rankAccepted = []string{
		`{"query": "search ranking", "n": 10, "unit": "alice", "arm": "", "seed": 42}`, // docs/api.md
		`{"query":"","n":10}`,                                               // json.Marshal(RankRequest{N: 10})
		`{"query":"bench topic","n":10,"unit":"u7"}`,                        // loadgen
		`{"query":"t1 t2","n":10,"unit":"u63","seed":18446744073709551615}`, // bench rankBody, max seed
		`{"query":"q","n":5,"arm":"treatment","seed":7}`,                    // loadgen scenario probe
		`{}`,
		" {\r\n\t\"n\" : -0 ,\n \"seed\":0}\n",
		`{"n":-9223372036854775808}`,
		`{"n":9223372036854775807}`,
		"{\"unit\":\"a b~\x7f\",\"query\":\"<&>'\"}", // DEL and the HTML characters are plain bytes on the way in
		`{"arm":"nope"}`,
	}
	rankBatchAccepted = []string{
		`{"requests": [{"query": "a", "n": 10}, {"query": "b", "n": 5, "seed": 7}]}`, // docs/api.md
		`{"requests":[{"query":"","n":3},{"query":"","n":2}]}`,
		`{"requests":[{"seed":1},{},{"seed":3,"arm":"treatment"}]}`,
		`{"requests":[]}`,
		`{}`,
	}
	feedbackAccepted = []string{
		"{\"events\": [{\"page\": 16, \"slot\": 3, \"impressions\": 1, \"clicks\": 1,\n             \"arm\": \"treatment\", \"unit\": \"alice\"}]}", // docs/api.md
		`{"events":[{"page":900,"slot":4,"impressions":1,"clicks":1},{"page":0,"slot":1,"impressions":1,"clicks":0}]}`,                              // json.Marshal, omitempty
		string(loopFeedbackBody(10000)),
		`{"events":[{"page":1,"slot":1,"clicks":-2}]}`,
		`{"events":[{"page":1,"slot":0,"impressions":1}]}`,
		`{"events":[{},{"unit":"u"},{"arm":"other"},{"arm":"other","unit":"u"}]}`,
		`{"events":[]}`,
		`{}`,
	}
	// Bodies the scanner must decline, leaving them to encoding/json:
	// some decode fine there (escapes, non-ASCII, unknown, duplicate or
	// mis-cased keys, null), some are its errors to word.
	rankDeclined = []string{
		`{"query":"a\"b"}`, `{"query":"caf\u00e9"}`, `{"query":"café"}`, "{\"query\":\"a\tb\"}",
		`{"query":"a","extra":1}`, `{"n":1,"n":2}`, `{"N":3}`, `{"Query":"x"}`,
		`{"seed":null}`, `{"n":null}`, `{"query":null}`, `null`, `[]`, `"x"`, `7`,
		`{"n":1.0}`, `{"n":1e2}`, `{"n":1E2}`, `{"n":01}`, `{"n":-}`, `{"n":- 1}`, `{"n":+1}`,
		`{"n":9223372036854775808}`, `{"n":-9223372036854775809}`, `{"seed":18446744073709551616}`,
		`{"seed":-1}`, `{"seed":-0}`, `{"n":"3"}`, `{"query":3}`, `{"n":1}x`, `{"n":1}{}`, `{"n":1,}`, `{,"n":1}`,
		`{"n" 1}`, `{"n":1 "seed":2}`, `{"query":"unterminated`, `{"n":1`, `{`, ``, ` `, "\ufeff{}",
	}
	rankBatchDeclined = []string{
		`{"requests":null}`, `{"requests":[null]}`, `{"requests":[{"n":1},]}`, `{"requests":[{"n":1}],"x":1}`,
		`{"Requests":[{"n":1}]}`, `{"requests":{"n":1}}`, `{"requests":[{"n":1}]`, `{"requests":[{"n":1.5}]}`,
		`{"events":[]}`,
	}
	feedbackDeclined = []string{
		`{"events":null}`, `{"events":[null]}`, `{"events":[{"page":1,"page":2}]}`, `{"events":[{"Page":1}]}`,
		`{"events":[{"page":1,"slot":1,"extra":true}]}`, `{"events":[{"unit":"\u0061"}]}`, `{"events":[{"arm":"é"}]}`,
		`{"events":[{"page":1.5}]}`, `{"events":[{"page":1e3}]}`, `{"events":[{"page":99999999999999999999}]}`,
		`{"events":[{"page":"1"}]}`, `{"events":[{"page":1}],"events":[]}`, `{"events":[{"page":1}]]}`,
		`{"events":[{"page":1},]}`, `{"events":[{"page":1}`, `{"events":{}}`, `{"requests":[]}`, `[{"page":1}]`,
	}
)

// testArms is the arm index the decode-level tests intern against.
var testArms = map[string]*armState{"treatment": {name: "treatment"}}

// sameList compares decoded lists; a nil and an empty list are the same
// list (no handler can tell them apart).
func sameList[T any](a, b []T) bool {
	return len(a) == 0 && len(b) == 0 || reflect.DeepEqual(a, b)
}

// scribble overwrites a body after it has been scanned: a decoded
// string that aliased it would change under the comparison that
// follows.
func scribble(body []byte) {
	for i := range body {
		body[i] = 0xff
	}
}

// checkScanRank pins the scanner's contract on one /v1/rank and one
// /v1/rank/batch reading of data — accepts ⇒ encoding/json accepts, with
// an equal value — and reports what it accepted.
func checkScanRank(t *testing.T, data []byte) (single, batch bool) {
	t.Helper()
	var wantOne RankRequest
	errOne := json.Unmarshal(data, &wantOne)
	var wantMany RankBatchRequest
	errMany := json.Unmarshal(data, &wantMany)

	body := bytes.Clone(data)
	var got RankRequest
	var seed uint64
	single = scanRankRequest(body, &got, &seed, testArms)
	reqs, _, batch := scanRankBatch(body, nil, nil, testArms)
	scribble(body)
	if single && (errOne != nil || !reflect.DeepEqual(got, wantOne)) {
		t.Fatalf("rank scanner took %q as %+v; encoding/json: %+v, %v", data, got, wantOne, errOne)
	}
	if batch && (errMany != nil || !sameList(reqs, wantMany.Requests)) {
		t.Fatalf("rank batch scanner took %q as %+v; encoding/json: %+v, %v", data, reqs, wantMany.Requests, errMany)
	}
	return single, batch
}

// checkScanFeedback is checkScanRank for the feedback body.
func checkScanFeedback(t *testing.T, data []byte) bool {
	t.Helper()
	var want FeedbackRequest
	err := json.Unmarshal(data, &want)
	body := bytes.Clone(data)
	got, ok := scanFeedback(body, nil, testArms)
	scribble(body)
	if ok && (err != nil || !sameList(got, want.Events)) {
		t.Fatalf("feedback scanner took %q as %+v; encoding/json: %+v, %v", data, got, want.Events, err)
	}
	return ok
}

func TestScannerAcceptsCanonicalBodies(t *testing.T) {
	for _, body := range rankAccepted {
		if single, _ := checkScanRank(t, []byte(body)); !single {
			t.Errorf("rank scanner declined %q", body)
		}
	}
	for _, body := range rankBatchAccepted {
		if _, batch := checkScanRank(t, []byte(body)); !batch {
			t.Errorf("rank batch scanner declined %q", body)
		}
	}
	for _, body := range feedbackAccepted {
		if !checkScanFeedback(t, []byte(body)) {
			t.Errorf("feedback scanner declined %q", body)
		}
	}
}

func TestScannerDeclinesTheRest(t *testing.T) {
	for _, body := range rankDeclined {
		if single, _ := checkScanRank(t, []byte(body)); single {
			t.Errorf("rank scanner took %q", body)
		}
	}
	for _, body := range append(rankBatchDeclined, rankDeclined...) {
		if _, batch := checkScanRank(t, []byte(body)); batch && body != `{"n":1}x` {
			t.Errorf("rank batch scanner took %q", body)
		}
	}
	for _, body := range feedbackDeclined {
		if checkScanFeedback(t, []byte(body)) {
			t.Errorf("feedback scanner took %q", body)
		}
	}
}

// TestScannerInternsStrings pins the allocation story: a configured
// arm's name is the corpus's own string, and an arm or unit repeated on
// consecutive events is one string, not one per event.
func TestScannerInternsStrings(t *testing.T) {
	body := []byte(`{"events":[{"arm":"treatment","unit":"u1"},{"arm":"treatment","unit":"u1"},{"arm":"x","unit":"u2"},{"arm":"x","unit":"u2"}]}`)
	events, ok := scanFeedback(body, nil, testArms)
	if !ok || len(events) != 4 {
		t.Fatalf("declined: %v %d", ok, len(events))
	}
	same := func(a, b string) bool { return a == b && unsafe.StringData(a) == unsafe.StringData(b) }
	if !same(events[0].Arm, testArms["treatment"].name) || !same(events[1].Arm, events[0].Arm) {
		t.Error("configured arm not interned to the canonical name")
	}
	if !same(events[1].Unit, events[0].Unit) || !same(events[3].Unit, events[2].Unit) || !same(events[3].Arm, events[2].Arm) {
		t.Error("repeated arm/unit not shared with the previous event")
	}
	if n := testing.AllocsPerRun(100, func() { events, _ = scanFeedback(body, events, testArms) }); n > 3 {
		t.Errorf("scan into a warm pool allocates %v times, want <= 3 (u1, x, u2)", n)
	}
}

// TestScanIntoReusedPoolLeaksNothing is the hazard that kept decoded
// structures out of the pool while json.Unmarshal filled them: a reused
// element keeps its old fields unless every one is assigned. Each case
// decodes `first` and then `second` into the same slices; the second
// result must equal a fresh encoding/json decode of `second`.
func TestScanIntoReusedPoolLeaksNothing(t *testing.T) {
	full := `{"events":[{"page":7,"slot":3,"impressions":2,"clicks":1,"arm":"treatment","unit":"alice"},{"page":8,"slot":4,"impressions":5,"clicks":6,"arm":"x","unit":"bob"}]}`
	for _, second := range []string{
		`{"events":[{"page":1},{"slot":2}]}`,
		`{"events":[{},{}]}`,
		`{"events":[{"unit":"carol"}]}`,
		`{"events":[{"clicks":1},{"arm":"treatment"},{"impressions":1}]}`,
		`{"events":[]}`,
		`{}`,
	} {
		pool, ok := scanFeedback([]byte(full), nil, testArms)
		if !ok {
			t.Fatal("declined the full body")
		}
		got, ok := scanFeedback([]byte(second), pool, testArms)
		var want FeedbackRequest
		if err := json.Unmarshal([]byte(second), &want); err != nil || !ok {
			t.Fatalf("%q: scanner %v, encoding/json %v", second, ok, err)
		}
		if !sameList(got, want.Events) {
			t.Errorf("after a full post, %q decoded as %+v, want %+v", second, got, want.Events)
		}
	}

	fullBatch := `{"requests":[{"query":"q1","n":5,"unit":"alice","arm":"treatment","seed":11},{"query":"q2","n":6,"unit":"bob","arm":"x","seed":12}]}`
	for _, second := range []string{
		`{"requests":[{"n":1},{"query":"z"}]}`,
		`{"requests":[{},{},{"seed":3}]}`,
		`{"requests":[{"unit":"carol"}]}`,
	} {
		reqs, seeds, ok := scanRankBatch([]byte(fullBatch), nil, nil, testArms)
		if !ok {
			t.Fatal("declined the full batch")
		}
		got, _, ok := scanRankBatch([]byte(second), reqs, seeds, testArms)
		var want RankBatchRequest
		if err := json.Unmarshal([]byte(second), &want); err != nil || !ok {
			t.Fatalf("%q: scanner %v, encoding/json %v", second, ok, err)
		}
		if !reflect.DeepEqual(got, want.Requests) {
			t.Errorf("after a full batch, %q decoded as %+v, want %+v", second, got, want.Requests)
		}
	}

	// The same through the handler, whose pool is the real one: a post
	// that spells out clicks, then one that omits them for another page.
	c := newTestCorpus(t, Config{Shards: 1, Seed: 1})
	seedCorpus(t, c, 15, 900)
	srv := NewServer(c)
	for _, body := range []string{
		`{"events":[{"page":3,"slot":1,"impressions":1,"clicks":5,"arm":"default","unit":"alice"}]}`,
		`{"events":[{"page":4,"slot":1}]}`,
	} {
		if w := do(t, srv, http.MethodPost, "/v1/feedback", "application/json", []byte(body)); w.Code != http.StatusAccepted {
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
	}
	c.Sync()
	if st := c.Stats(); st.ClicksApplied != 5 || st.ImpressionsApplied != 1 {
		t.Errorf("applied %d clicks, %d impressions; want 5 and 1 (the second post carried none)", st.ClicksApplied, st.ImpressionsApplied)
	}
}

// TestOversizedFeedbackIsNotPooled: an over-cap /v1/feedback/batch body
// is refused with a 400; an uncapped /v1/feedback post of the same size
// is accepted, and the slice it scanned into is dropped when the
// scratch goes back to the pool instead of staying there at that size.
func TestOversizedFeedbackIsNotPooled(t *testing.T) {
	const n = maxPooledEvents + 1
	body := append([]byte(`{"events":[`), bytes.Repeat([]byte(`{"page":1,"slot":1},`), n)...)
	body = append(body[:len(body)-1], "]}"...)

	c := newTestCorpus(t, Config{Shards: 1, Seed: 1})
	seedCorpus(t, c, 15, 900)
	srv := NewServer(c)
	over := AppendFeedbackBatchRequest(nil, make([]Event, n))
	if w := do(t, srv, http.MethodPost, "/v1/feedback/batch", BatchContentType, over); w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "bad event count") {
		t.Fatalf("over-cap batch: status %d %s, want 400 bad event count", w.Code, w.Body)
	}
	if w := do(t, srv, http.MethodPost, "/v1/feedback", "application/json", body); w.Code != http.StatusAccepted {
		t.Fatalf("uncapped post: status %d %s", w.Code, w.Body)
	}
	sc := &connScratch{events: make([]Event, 0, n)}
	srv.putScratch(sc)
	if sc.events != nil {
		t.Errorf("putScratch kept a %d-event slice, cap is %d", n, maxPooledEvents)
	}
	sc = &connScratch{events: make([]Event, 0, maxPooledEvents)}
	if srv.putScratch(sc); sc.events == nil {
		t.Error("putScratch dropped a slice within the cap")
	}
}

// viaFallback rewrites a body the scanner takes into one it declines —
// an unknown first key, which encoding/json skips — so the same request
// reaches the handler through json.Unmarshal.
func viaFallback(body []byte) []byte {
	open := bytes.IndexByte(body, '{')
	rest := bytes.TrimLeft(body[open+1:], " \t\r\n")
	out := append(bytes.Clone(body[:open+1]), `"~":0`...)
	if !bytes.HasPrefix(rest, []byte("}")) {
		out = append(out, ',')
	}
	return append(out, rest...)
}

// diffHandler posts body to path twice — as is, and rewritten to force
// the json.Unmarshal path — and requires the same status and the same
// response bytes.
func diffHandler(t *testing.T, srv *Server, path string, body []byte) {
	t.Helper()
	fast := do(t, srv, http.MethodPost, path, "application/json", body)
	slow := do(t, srv, http.MethodPost, path, "application/json", viaFallback(body))
	if fast.Code != slow.Code || !bytes.Equal(fast.Body.Bytes(), slow.Body.Bytes()) {
		t.Fatalf("%s %q:\nscanner path   %d %s\nencoding/json  %d %s", path, body, fast.Code, fast.Body, slow.Code, slow.Body)
	}
}

// fuzzServer serves a small corpus under one arm that never randomizes,
// so a rank reply is a function of the request alone and two posts of
// one request can be compared byte for byte.
func fuzzServer(tb testing.TB) (*Server, *Corpus) {
	tb.Helper()
	c, err := NewCorpus(Config{Shards: 2, Seed: 1, QueueLen: 4096, Arms: []Arm{
		{Name: "treatment", Policy: policy.Spec{Rule: "deterministic"}, Weight: 1},
	}})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(c.Close)
	for i := 0; i < 40; i++ {
		if err := c.Add(i, fmt.Sprintf("search ranking a b q t1 t2 page%d", i), float64(40-i)); err != nil {
			tb.Fatal(err)
		}
	}
	c.Sync()
	return NewServer(c), c
}

// FuzzDecodeRankRequest is the differential target for the rank
// scanner, single and batch: whatever it accepts, encoding/json accepts
// with an equal value, and the handlers answer the same status and bytes
// as they do through json.Unmarshal.
func FuzzDecodeRankRequest(f *testing.F) {
	for _, seeds := range [][]string{rankAccepted, rankBatchAccepted, rankDeclined, rankBatchDeclined} {
		for _, s := range seeds {
			f.Add([]byte(s))
		}
	}
	srv, _ := fuzzServer(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		single, batch := checkScanRank(t, data)
		if single {
			diffHandler(t, srv, "/v1/rank", data)
		}
		if batch {
			diffHandler(t, srv, "/v1/rank/batch", data)
		}
	})
}

// FuzzDecodeFeedbackRequest is the same for the feedback scanner, on
// /v1/feedback.
func FuzzDecodeFeedbackRequest(f *testing.F) {
	for _, seeds := range [][]string{feedbackAccepted, feedbackDeclined} {
		for _, s := range seeds {
			f.Add([]byte(s))
		}
	}
	srv, c := fuzzServer(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if !checkScanFeedback(t, data) {
			return
		}
		diffHandler(t, srv, "/v1/feedback", data)
		c.Sync() // drain, so no run of accepted posts fills a queue into 429s
	})
}

// TestHotHandlerAllocs pins what a canonical request costs in
// allocations end to end through ServeHTTP: the body-size limiter, the
// strings a request really carries, the rank result, and for feedback
// the partition (two header slices and the one array the per-shard
// batches are carved from) and the credit-rollback list.
func TestHotHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race, so pooled paths allocate by design")
	}
	c := newTestCorpus(t, Config{Shards: 8, Seed: 1, QueueLen: 4096})
	seedCorpus(t, c, 200, 900)
	srv := NewServer(c)

	post, w := reusedPost(srv, "/v1/rank", []byte(`{"query":"testing topic","n":10,"unit":"u7","seed":5}`))
	post()
	if n := testing.AllocsPerRun(200, post); w.code != http.StatusOK || n > 5 {
		t.Errorf("/v1/rank: status %d, %v allocs/op, want 200 and <= 5", w.code, n)
	}

	// No clicks: a click republishes its shard's snapshot on the apply
	// goroutine, which AllocsPerRun would count too.
	body := bytes.ReplaceAll(loopFeedbackBody(200), []byte(`"clicks":1`), []byte(`"clicks":0`))
	post, w = reusedPost(srv, "/v1/feedback", body)
	post()
	if n := testing.AllocsPerRun(200, post); w.code != http.StatusAccepted || n > 6 {
		t.Errorf("/v1/feedback: status %d, %v allocs/op for 20 events, want 202 and <= 6", w.code, n)
	}
}

func BenchmarkDecodeFeedback(b *testing.B) {
	body := loopFeedbackBody(10000)
	arms := map[string]*armState{DefaultArmName: {name: DefaultArmName}}
	b.Run("scanner", func(b *testing.B) {
		var pool []Event
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var ok bool
			if pool, ok = scanFeedback(body, pool, arms); !ok || len(pool) != 20 {
				b.Fatal("declined")
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req FeedbackRequest
			if err := json.Unmarshal(body, &req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

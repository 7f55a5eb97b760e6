package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

const goodReply = `{"query":"h01 h02","arm":"default","epoch":12,"results":[` +
	`{"slot":1,"id":4,"popularity":9.5,"promoted":false},` +
	`{"slot":2,"id":49,"popularity":0,"promoted":true},` +
	`{"slot":3,"id":7,"popularity":2e-3,"promoted":false}]}` + "\n"

// The scanner reads what encoding/json reads.
func TestParseRankAgreesWithEncodingJSON(t *testing.T) {
	for _, body := range []string{
		goodReply,
		// Other key order, white space, an unknown field, an escaped string.
		` { "results" : [ { "promoted" : true , "popularity" : 0 , "id" : 3 , "slot" : 1 , "extra" : [1,{"a":null}] } ] , "arm" : "a\"b" , "epoch" : 1 } `,
		`{"query":"","arm":"default","epoch":0,"results":[]}`,
	} {
		var want serve.RankResponse
		if err := json.Unmarshal([]byte(body), &want); err != nil {
			t.Fatal(err)
		}
		items, arm, err := parseRank([]byte(body), nil)
		if err != nil {
			t.Fatalf("parseRank(%s): %v", body, err)
		}
		var wantArm string
		_ = json.Unmarshal([]byte(`"`+string(arm)+`"`), &wantArm)
		if wantArm != want.Arm || len(items) != len(want.Results) {
			t.Fatalf("parseRank(%s) = %v arm %q, want %+v", body, items, arm, want)
		}
		for i, it := range items {
			w := want.Results[i]
			if it.id != w.ID || it.pop != w.Popularity || it.promoted != w.Promoted {
				t.Errorf("item %d = %+v, want %+v", i, it, w)
			}
		}
	}
}

func TestParseRankRejects(t *testing.T) {
	for name, body := range map[string]string{
		"truncated":     goodReply[:len(goodReply)-10],
		"trailing junk": goodReply + "x",
		"not an object": `[1,2]`,
		"slot skipped":  `{"arm":"d","results":[{"slot":2,"id":1,"popularity":1,"promoted":false}]}`,
		"slot repeated": `{"arm":"d","results":[{"slot":1,"id":1,"popularity":1,"promoted":false},{"slot":1,"id":2,"popularity":1,"promoted":false}]}`,
		"bad literal":   `{"arm":"d","results":[{"slot":1,"id":1,"popularity":1,"promoted":maybe}]}`,
	} {
		if _, _, err := parseRank([]byte(body), nil); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestParseRankDoesNotAllocate(t *testing.T) {
	body, items := []byte(goodReply), make([]rankItem, 0, 16)
	if n := testing.AllocsPerRun(100, func() { items, _, _ = parseRank(body, items) }); n != 0 {
		t.Errorf("parseRank allocates %v times per reply", n)
	}
}

func TestCheckRank(t *testing.T) {
	good := []rankItem{{id: 4, pop: 9.5}, {id: 49, promoted: true}, {id: 7, pop: 0.002}}
	if err := checkRank(good, 3, true); err != nil {
		t.Fatalf("good list: %v", err)
	}
	for name, tc := range map[string]struct {
		items     []rankItem
		n         int
		quiescent bool
	}{
		"short":              {good[:2], 3, false},
		"duplicate":          {[]rankItem{{id: 4, pop: 9}, {id: 4, pop: 8}, {id: 5, pop: 7}}, 3, false},
		"order":              {[]rankItem{{id: 4, pop: 1}, {id: 5, pop: 2}, {id: 6, pop: 0.5}}, 3, true},
		"promoted with pop":  {[]rankItem{{id: 4, pop: 9}, {id: 5, pop: 3, promoted: true}, {id: 6, pop: 1}}, 3, true},
		"order past a promo": {[]rankItem{{id: 4, pop: 1}, {id: 5, promoted: true}, {id: 6, pop: 2}}, 3, true},
	} {
		if err := checkRank(tc.items, tc.n, tc.quiescent); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Under concurrent feedback the echoed popularity may have moved
	// since the order was fixed; only the structural checks apply.
	if err := checkRank([]rankItem{{id: 4, pop: 1}, {id: 5, pop: 2, promoted: true}, {id: 6, pop: 3}}, 3, false); err != nil {
		t.Errorf("live list: %v", err)
	}
	want := []serve.Result{{ID: 4}, {ID: 49, Promoted: true}, {ID: 7}}
	if err := sameIDs(good, want); err != nil {
		t.Errorf("sameIDs: %v", err)
	}
	want[2].ID = 8
	if err := sameIDs(good, want); err == nil {
		t.Error("sameIDs accepted a different ranking")
	}
}

func TestParseAccepted(t *testing.T) {
	if n, err := parseAccepted([]byte("{\"accepted\":20}\n")); err != nil || n != 20 {
		t.Errorf("got %d %v", n, err)
	}
	for _, bad := range []string{`{}`, `{"accepted":"x"}`, `{"error":{"code":"overloaded"}}`, ``} {
		if _, err := parseAccepted([]byte(bad)); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

// A service that answers 200 with a wrong list (here: one page served
// twice) fails the run: the operations count as failed, the run is
// marked incorrect and the process exits non-zero.
func TestCorruptedReplyFailsTheRun(t *testing.T) {
	var items []string
	for slot := 1; slot <= rankN; slot++ {
		items = append(items, fmt.Sprintf(`{"slot":%d,"id":%d,"popularity":1,"promoted":false}`, slot, slot/2))
	}
	corrupt := `{"query":"","arm":"default","epoch":1,"results":[` + strings.Join(items, ",") + `]}`
	srv := newHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(corrupt))
	}))
	addr, err := serveOn(srv)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	r := &run{workload: "rank-hot", seed: 1, window: time.Second, clients: 2, s: &sut{addr: addr},
		metrics: map[string]metric{}, samples: map[string]int{}, layers: map[string]metric{}}
	ranks, _ := r.pools(genHotQueries(1), true)
	m := r.mix(0.25, false)
	if err := m.run(m.rankKind(ranks)); err != nil {
		t.Fatal(err)
	}
	rep := r.report()
	if rep.Correct || rep.Failed == 0 || rep.Failed != rep.Attempted || len(rep.Errors) == 0 {
		t.Fatalf("corrupted replies passed: %+v", rep)
	}
	if !strings.Contains(rep.Errors[0], "served twice") {
		t.Errorf("error does not name the defect: %q", rep.Errors[0])
	}
	if code := exitCode([]report{rep}); code == 0 {
		t.Error("exit code 0 for an incorrect run")
	}
	// A failed workload-shape assertion alone also fails the run.
	var tal tally
	tal.assert(0.5 >= 0.99, "rank-hot: cache hit ratio %.4f, want >= 0.99", 0.5)
	shape := report{result: result{Correct: tal.incorrect == 0, Attempted: 10}}
	if exitCode([]report{shape}) == 0 {
		t.Error("exit code 0 for a failed shape assertion")
	}
	if exitCode([]report{{result: result{Correct: true, Attempted: 10}}}) != 0 {
		t.Error("exit code non-zero for a clean run")
	}
}

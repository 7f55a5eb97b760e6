package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/policy"
)

// pspec is shorthand for a policy spec in table-style tests.
func pspec(rule string, k int, r, rmin float64) policy.Spec {
	return policy.Spec{Rule: rule, K: k, R: r, RMin: rmin}
}

// TestConcurrentFeedbackConservesPopularity hammers /feedback and /rank
// from many goroutines and asserts no update is lost: after a final
// Sync, the corpus-wide popularity gained must equal exactly the clicks
// sent, per page and in total. Run under -race this also exercises the
// snapshot swap, the stats map and the apply loops for data races.
func TestConcurrentFeedbackConservesPopularity(t *testing.T) {
	const (
		pages      = 64
		writers    = 8
		readers    = 4
		rounds     = 50
		clicksPer  = 3
		initialPop = 1.0
	)
	// The writers never wait for the apply loops and any non-202 fails
	// the test, so the queues hold everything one shard can be sent: a
	// 429 here is then a leaked credit or a spurious overload, never a
	// starved apply goroutine on a small machine.
	c := newTestCorpus(t, Config{Shards: 4, Seed: 13, QueueLen: writers * rounds})
	for i := 0; i < pages; i++ {
		pop := initialPop
		if i%4 == 0 {
			pop = 0 // a quarter starts in the zero-awareness pool
		}
		if err := c.Add(i, fmt.Sprintf("stress topic page%d", i), pop); err != nil {
			t.Fatal(err)
		}
	}
	c.Sync()
	before := c.Stats()

	srv := httptest.NewServer(NewServer(c))
	defer srv.Close()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				var events []Event
				for p := w % 4; p < pages; p += 4 {
					events = append(events, Event{
						Page: p, Slot: 1 + p%10, Impressions: 1, Clicks: clicksPer,
					})
				}
				body, err := json.Marshal(FeedbackRequest{Events: events})
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := http.Post(srv.URL+"/v1/feedback", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted {
					t.Errorf("/feedback status %d", resp.StatusCode)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				query := ""
				if i%2 == 0 {
					query = "stress topic"
				}
				body, _ := json.Marshal(RankRequest{Query: query, N: 20})
				resp, err := http.Post(srv.URL+"/v1/rank", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var rr RankResponse
				if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
					t.Error(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("/rank status %d", resp.StatusCode)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	c.Sync()

	after := c.Stats()
	// Each of the `pages` columns receives writers/4 goroutines × rounds ×
	// clicksPer clicks.
	wantClicks := uint64(pages * (writers / 4) * rounds * clicksPer)
	if got := after.ClicksApplied - before.ClicksApplied; got != wantClicks {
		t.Fatalf("clicks applied = %d, want %d", got, wantClicks)
	}
	if after.Dropped != before.Dropped {
		t.Fatalf("dropped %d events", after.Dropped-before.Dropped)
	}
	gained := after.TotalPopularity - before.TotalPopularity
	if math.Abs(gained-float64(wantClicks)) > 1e-6 {
		t.Fatalf("popularity gained %v, want %v (lost updates)", gained, wantClicks)
	}
	perPage := float64((writers / 4) * rounds * clicksPer)
	for i := 0; i < pages; i++ {
		st, ok := c.Page(i)
		if !ok {
			t.Fatalf("page %d vanished", i)
		}
		wantPop := initialPop + perPage
		if i%4 == 0 {
			wantPop = perPage
		}
		if st.Popularity != wantPop {
			t.Fatalf("page %d popularity %v, want %v", i, st.Popularity, wantPop)
		}
		if !st.Aware {
			t.Fatalf("page %d still zero-awareness after %v clicks", i, perPage)
		}
	}
	if after.ZeroAware != 0 {
		t.Fatalf("%d pages still zero-awareness", after.ZeroAware)
	}
}

// TestConcurrentRankAcrossArmsConservation hammers /rank (unit-bucketed
// across two arms) and arm-attributed /feedback concurrently and asserts
// exact per-arm accounting: pages are partitioned between the arms'
// feedback streams, so each arm's click and discovery counters have a
// single exact expected value — any lost or double-counted event fails.
// Run under -race this also exercises the per-arm atomic counters and
// the per-arm cache keys against the snapshot swap.
func TestConcurrentRankAcrossArmsConservation(t *testing.T) {
	const (
		pages   = 48 // even split: arm parity partitions the pages
		writers = 6
		readers = 6
		rounds  = 40
	)
	// Queues sized as in TestConcurrentFeedbackConservesPopularity: a 429
	// can only be a bug.
	c := newTestCorpus(t, Config{Shards: 4, Seed: 29, QueueLen: writers * rounds, Arms: []Arm{
		{Name: "control", Policy: pspec("deterministic", 0, 0, 0), Weight: 1},
		{Name: "treatment", Policy: pspec("selective", 1, 0.3, 0), Weight: 1},
	}})
	for i := 0; i < pages; i++ {
		pop := 1.0
		if i%8 < 2 {
			// A quarter starts in the zero-awareness pool, split evenly
			// across the two parities (and so across the arm partitions).
			pop = 0
		}
		if err := c.Add(i, fmt.Sprintf("armstress topic page%d", i), pop); err != nil {
			t.Fatal(err)
		}
	}
	c.Sync()
	before := c.Stats()

	srv := httptest.NewServer(NewServer(c))
	defer srv.Close()

	armOf := func(page int) string {
		if page%2 == 0 {
			return "control"
		}
		return "treatment"
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				var events []Event
				for p := w % 2; p < pages; p += 2 {
					// Even writers feed even pages (control's partition),
					// odd writers odd pages (treatment's).
					events = append(events, Event{
						Page: p, Slot: 1 + p%10, Impressions: 1, Clicks: 1, Arm: armOf(p),
					})
				}
				body, err := json.Marshal(FeedbackRequest{Events: events})
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := http.Post(srv.URL+"/v1/feedback", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted {
					t.Errorf("/feedback status %d", resp.StatusCode)
					return
				}
			}
		}(w)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				query := ""
				if i%2 == 0 {
					query = "armstress topic"
				}
				body, _ := json.Marshal(RankRequest{Query: query, N: 20, Unit: fmt.Sprintf("unit-%d-%d", g, i)})
				resp, err := http.Post(srv.URL+"/v1/rank", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var rr RankResponse
				if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
					t.Error(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("/rank status %d", resp.StatusCode)
					return
				}
				if rr.Arm != "control" && rr.Arm != "treatment" {
					t.Errorf("served by undeclared arm %q", rr.Arm)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	c.Sync()

	after := c.Stats()
	// writers/2 goroutines per parity × rounds × pages/2 clicks.
	perArmClicks := uint64(writers / 2 * rounds * pages / 2)
	if got := after.ClicksApplied - before.ClicksApplied; got != 2*perArmClicks {
		t.Fatalf("clicks applied = %d, want %d", got, 2*perArmClicks)
	}
	gained := after.TotalPopularity - before.TotalPopularity
	if math.Abs(gained-float64(2*perArmClicks)) > 1e-6 {
		t.Fatalf("popularity gained %v, want %v (lost updates)", gained, 2*perArmClicks)
	}
	byName := map[string]ArmReport{}
	for _, a := range after.Arms {
		byName[a.Name] = a
	}
	for _, name := range []string{"control", "treatment"} {
		rep := byName[name]
		if rep.Clicks != perArmClicks || rep.Impressions != perArmClicks {
			t.Fatalf("arm %q clicks/impressions = %d/%d, want %d each",
				name, rep.Clicks, rep.Impressions, perArmClicks)
		}
		// Each arm's partition holds pages/8 zero-awareness pages, and
		// only that arm ever clicks them: discoveries are exact.
		if rep.Discoveries != pages/8 {
			t.Fatalf("arm %q discoveries = %d, want %d", name, rep.Discoveries, pages/8)
		}
	}
	if after.ZeroAware != 0 {
		t.Fatalf("%d pages still zero-awareness", after.ZeroAware)
	}
}

// TestConcurrentRankDuringPromotion races direct Rank calls against
// promotions that restructure the treap and snapshots, checking the
// served lists stay well-formed (no duplicates, no unknown ids).
func TestConcurrentRankDuringPromotion(t *testing.T) {
	const pages = 40
	c := newTestCorpus(t, Config{Shards: 4, Seed: 17})
	for i := 0; i < pages; i++ {
		pop := float64(pages - i)
		if i >= pages/2 {
			pop = 0
		}
		if err := c.Add(i, "promo topic", pop); err != nil {
			t.Fatal(err)
		}
	}
	c.Sync()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := pages / 2; i < pages; i++ {
			c.Feedback([]Event{{Page: i, Slot: 1, Impressions: 1, Clicks: 1 + i}})
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				res, err := c.Rank("", 15)
				if err != nil {
					t.Error(err)
					return
				}
				seen := make(map[int]bool, len(res))
				for _, r := range res {
					if r.ID < 0 || r.ID >= pages {
						t.Errorf("served unknown page %d", r.ID)
						return
					}
					if seen[r.ID] {
						t.Errorf("page %d served twice in one list", r.ID)
						return
					}
					seen[r.ID] = true
				}
			}
		}(g)
	}
	wg.Wait()
	c.Sync()
	if st := c.Stats(); st.ZeroAware != 0 {
		t.Fatalf("%d pages left unpromoted", st.ZeroAware)
	}
}

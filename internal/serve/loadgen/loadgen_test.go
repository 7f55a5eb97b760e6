package loadgen

import (
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/policy"
	"repro/internal/serve"
)

// TestLoadRunPromotesPlantedGem is the paper's whole argument run
// end-to-end over HTTP: a corpus of entrenched mediocre pages plus one
// planted zero-awareness page of high quality, served with the
// recommended selective policy under simulated click traffic. The gem
// can only be seen through randomized promotion; because users click
// what they like, its clicks must lift it into the deterministic top
// ranking by the end of the run.
func TestLoadRunPromotesPlantedGem(t *testing.T) {
	const (
		established = 30
		gemID       = 999
		gemQuality  = 0.95
		dullQuality = 0.03
	)
	c, err := serve.NewCorpus(serve.Config{Shards: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < established; i++ {
		// Establishment popularity 1.50 down to 0.05: entrenched, but a
		// page's first clicks keep it inside the served window so it can
		// fend for itself after leaving the promotion pool (§4).
		if err := c.Add(i, fmt.Sprintf("gadgets review page%d", i), float64(established-i)*0.05); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Add(gemID, "gadgets review hidden gem", 0); err != nil {
		t.Fatal(err)
	}
	c.Sync()

	for _, st := range c.Top(10) {
		if st.ID == gemID {
			t.Fatal("gem already in deterministic top before any traffic")
		}
	}

	srv := httptest.NewServer(serve.NewServer(c))
	defer srv.Close()

	report, err := Run(Config{
		BaseURL:  srv.URL,
		Workers:  4,
		Requests: 1000,
		N:        20,
		Seed:     5,
		Quality: func(id int) float64 {
			if id == gemID {
				return gemQuality
			}
			return dullQuality
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Errors != 0 {
		t.Fatalf("load run had %d errors: %v", report.Errors, report)
	}
	if report.Requests != 1000 {
		t.Fatalf("completed %d requests, want 1000", report.Requests)
	}
	if report.Clicks == 0 || report.Impressions == 0 {
		t.Fatalf("no feedback generated: %v", report)
	}
	if report.P50 <= 0 || report.P99 < report.P50 || report.QPS <= 0 {
		t.Fatalf("implausible latency report: %v", report)
	}
	c.Sync()

	gem, ok := c.Page(gemID)
	if !ok {
		t.Fatal("gem vanished")
	}
	if !gem.Aware {
		t.Fatal("gem never promoted out of the zero-awareness pool")
	}
	if gem.Clicks == 0 || gem.Popularity == 0 {
		t.Fatalf("gem got no clicks: %+v", gem)
	}
	inTop := false
	for _, st := range c.Top(10) {
		if st.ID == gemID {
			inTop = true
		}
	}
	if !inTop {
		top := c.Top(10)
		t.Fatalf("gem (popularity %v after %d clicks) not in deterministic top 10: %+v",
			gem.Popularity, gem.Clicks, top)
	}

	// The feedback ledger must conserve: applied clicks equal reported
	// clicks, applied impressions equal reported impressions.
	st := c.Stats()
	if st.ClicksApplied != uint64(report.Clicks) {
		t.Fatalf("clicks applied %d != clicks sent %d", st.ClicksApplied, report.Clicks)
	}
	if st.ImpressionsApplied != uint64(report.Impressions) {
		t.Fatalf("impressions applied %d != impressions sent %d", st.ImpressionsApplied, report.Impressions)
	}
	if st.Dropped != 0 {
		t.Fatalf("dropped %d events", st.Dropped)
	}
}

// TestTwoArmExperimentRun is the tentpole's acceptance run: a
// deterministic control arm against the paper's selective treatment,
// mixed browse/query workload, unit-bucketed simulated users. The
// selective arm must surface (and get clicked on) zero-awareness gems
// the deterministic arm cannot serve at all, which shows up as per-arm
// discovery counts.
func TestTwoArmExperimentRun(t *testing.T) {
	const established = 24
	c, err := serve.NewCorpus(serve.Config{
		Shards: 4,
		Seed:   31,
		Arms: []serve.Arm{
			{Name: "control", Policy: policy.Spec{Rule: policy.RuleDeterministic}, Weight: 1},
			{Name: "treatment", Policy: policy.Spec{Rule: policy.RuleSelective, K: 1, R: 0.25}, Weight: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	gems := map[int]bool{}
	for i := 0; i < established; i++ {
		if err := c.Add(i, fmt.Sprintf("gadgets review page%d", i), float64(established-i)*0.05); err != nil {
			t.Fatal(err)
		}
	}
	// Several planted zero-awareness gems: only randomized promotion can
	// surface them.
	for id := 990; id < 998; id++ {
		gems[id] = true
		if err := c.Add(id, fmt.Sprintf("gadgets review gem%d", id), 0); err != nil {
			t.Fatal(err)
		}
	}
	c.Sync()

	srv := httptest.NewServer(serve.NewServer(c))
	defer srv.Close()

	report, err := Run(Config{
		BaseURL:  srv.URL,
		Workers:  4,
		Requests: 1200,
		N:        15,
		Units:    32,
		Seed:     3,
		Queries:  []string{"gadgets review"},
		Quality: func(id int) float64 {
			if gems[id] {
				return 0.9
			}
			return 0.02
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Errors != 0 {
		t.Fatalf("two-arm run had %d errors: %v", report.Errors, report)
	}
	c.Sync()

	if report.Requests != 1200 {
		t.Fatalf("completed %d requests, want 1200", report.Requests)
	}

	// The experiment's point: the selective treatment discovers gems, the
	// deterministic control cannot discover anything (it never serves a
	// zero-awareness page, so no gem's first click can come from it).
	byName := map[string]serve.ArmReport{}
	for _, a := range c.Arms() {
		byName[a.Name] = a
	}
	ctrl, treat := byName["control"], byName["treatment"]
	if ctrl.Requests == 0 || treat.Requests == 0 {
		t.Fatalf("arms unexercised on the corpus side: %+v / %+v", ctrl, treat)
	}
	if treat.Discoveries == 0 {
		t.Fatalf("selective treatment made no discoveries: %+v", treat)
	}
	if ctrl.Discoveries != 0 {
		t.Fatalf("deterministic control claims %d discoveries", ctrl.Discoveries)
	}
	if treat.Impressions == 0 || treat.Clicks == 0 {
		t.Fatalf("treatment telemetry empty: %+v", treat)
	}
}

func TestRunValidatesConfig(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("Run accepted empty BaseURL")
	}
}

// TestMixedQueryWorkload runs the query-mode workload: half the requests
// exercise the search-query path, whose repeated topic queries the
// service must answer from its hot-query cache.
func TestMixedQueryWorkload(t *testing.T) {
	c, err := serve.NewCorpus(serve.Config{Shards: 2, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	topics := []string{"golang concurrency", "ranking randomization"}
	for i := 0; i < 40; i++ {
		text := fmt.Sprintf("%s page%d", topics[i%len(topics)], i)
		if err := c.Add(i, text, float64(40-i)); err != nil {
			t.Fatal(err)
		}
	}
	c.Sync()
	srv := httptest.NewServer(serve.NewServer(c))
	defer srv.Close()

	report, err := Run(Config{
		BaseURL:  srv.URL,
		Workers:  3,
		Requests: 300,
		N:        10,
		Seed:     7,
		Queries:  topics,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Errors != 0 {
		t.Fatalf("mixed run had %d errors: %v", report.Errors, report)
	}
	if report.Requests != 300 {
		t.Fatalf("completed %d requests, want 300", report.Requests)
	}
	// The repeated topic queries must be served from the hot-query cache
	// between feedback flushes.
	if st := c.Stats(); st.QueryCacheHits == 0 {
		t.Fatalf("query workload never hit the candidate cache: %+v", st)
	}
}

// TestKillAfterRestartLosesNoAcknowledgedFeedback is the loadgen crash
// scenario: simulated users drive a durable two-arm service, the
// process "dies" mid-run (listener closed, corpus killed with no final
// snapshot), and a restart from the data dir must hold every feedback
// event the service acknowledged — per page, exactly.
func TestKillAfterRestartLosesNoAcknowledgedFeedback(t *testing.T) {
	const established = 40
	dir := t.TempDir()
	cfg := serve.Config{
		Shards:     4,
		Seed:       11,
		Durability: serve.Durability{DataDir: dir, KeepLog: true},
		Arms: []serve.Arm{
			{Name: "control", Policy: policy.Spec{Rule: policy.RuleDeterministic}, Weight: 1},
			{Name: "explore", Policy: policy.Spec{Rule: policy.RuleSelective, K: 1, R: 0.3}, Weight: 1},
		},
	}
	c, err := serve.NewCorpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < established; i++ {
		pop := float64(established-i) * 0.05
		if i%8 == 0 {
			pop = 0
		}
		if err := c.Add(i, fmt.Sprintf("crashy topic page%d", i), pop); err != nil {
			t.Fatal(err)
		}
	}
	c.Sync()

	recorder := NewAckRecorder(serve.NewServer(c))
	srv := httptest.NewServer(recorder)

	// Drive load in the background and kill the service mid-run: the
	// workers that lose the race report transport errors, which is
	// exactly what a crashed server looks like from outside.
	done := make(chan *Report, 1)
	go func() {
		report, err := Run(Config{
			BaseURL:       srv.URL,
			Workers:       4,
			Requests:      4000,
			N:             15,
			Seed:          7,
			FeedbackBatch: 5,
			Retries:       -1, // a crashed server must fail fast, not be retried for seconds
			Quality:       func(id int) float64 { return 0.3 },
		})
		if err != nil {
			t.Errorf("loadgen: %v", err)
		}
		done <- report
	}()
	time.Sleep(150 * time.Millisecond)
	srv.CloseClientConnections()
	srv.Close() // waits for in-flight handlers: every 202 decision is final
	c.Kill()    // SIGKILL-equivalent: no final snapshot, queues abandoned
	report := <-done
	if report == nil {
		t.Fatal("no loadgen report")
	}

	recorder.mu.Lock()
	ackedPages := len(recorder.imps)
	var ackedClicks int64
	for _, n := range recorder.clks {
		ackedClicks += n
	}
	recorder.mu.Unlock()
	if ackedPages == 0 {
		t.Skip("kill landed before any feedback was acknowledged; nothing to verify")
	}

	r, err := serve.NewCorpus(cfg)
	if err != nil {
		t.Fatalf("recovery after kill: %v", err)
	}
	defer r.Close()
	if info := r.Recovery(); !info.Durable || info.Pages != established {
		t.Fatalf("recovery info = %+v, want %d pages", info, established)
	}
	recorder.mu.Lock()
	defer recorder.mu.Unlock()
	st := r.Stats()
	if int64(st.ClicksApplied) < ackedClicks {
		t.Fatalf("recovered %d clicks, but %d were acknowledged before the kill", st.ClicksApplied, ackedClicks)
	}
	for page, clicks := range recorder.clks {
		p, ok := r.Page(page)
		if !ok {
			t.Fatalf("acknowledged page %d missing after recovery", page)
		}
		if p.Clicks < clicks {
			t.Fatalf("page %d recovered %d clicks, %d were acknowledged", page, p.Clicks, clicks)
		}
		if p.Impressions < recorder.imps[page] {
			t.Fatalf("page %d recovered %d impressions, %d were acknowledged", page, p.Impressions, recorder.imps[page])
		}
	}
}

// TestClusterKillLeaderLosesNoAcknowledgedFeedback extends the crash
// scenario above to the 3-node replicated cluster: the leader of shard
// 0 is SIGKILLed mid-run, a follower is promoted, and every per-page
// feedback total a front door acknowledged with 202 must be present on
// the shard's CURRENT leader — the promoted follower for the dead
// node's shards.
func TestClusterKillLeaderLosesNoAcknowledgedFeedback(t *testing.T) {
	const established = 24
	rec := NewAckRecorder(nil)
	cl, err := cluster.New(cluster.Options{
		Nodes:   3,
		Shards:  4,
		DataDir: t.TempDir(),
		Seed:    11,
		Arms: []serve.Arm{
			{Name: "control", Policy: policy.Spec{Rule: policy.RuleDeterministic}, Weight: 1},
			{Name: "explore", Policy: policy.Spec{Rule: policy.RuleSelective, K: 1, R: 0.3}, Weight: 1},
		},
		HeartbeatEvery:  20 * time.Millisecond,
		ElectionTimeout: 250 * time.Millisecond,
		Logf:            t.Logf,
		WrapFrontDoor:   rec.Wrap,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < established; i++ {
		pop := float64(established-i) * 0.05
		if i%8 == 0 {
			pop = 0
		}
		if err := cl.Add(i, fmt.Sprintf("crashy topic page%d", i), pop); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	victim := cl.LeaderIndex(0)
	victimID := cl.Node(victim).ID()
	requests := 1500
	if testing.Short() {
		requests = 600
	}
	done := make(chan *Report, 1)
	go func() {
		report, err := Run(Config{
			BaseURL:       cl.FrontDoorURL(victim), // this door dies mid-run
			Resolve:       cl.FirstAliveFrontDoor,
			Workers:       4,
			Requests:      requests,
			N:             12,
			Seed:          7,
			FeedbackBatch: 5,
			Retries:       8,
			RetryBackoff:  10 * time.Millisecond,
			Quality:       func(id int) float64 { return 0.3 },
		})
		if err != nil {
			t.Errorf("loadgen: %v", err)
		}
		done <- report
	}()
	time.Sleep(200 * time.Millisecond)
	cl.KillNode(victim)
	if err := cl.WaitForLeaderChange(0, victimID, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	promoted := cl.LeaderIndex(0)
	t.Logf("killed %s, promoted %s for shard 0", victimID, cl.Node(promoted).ID())
	report := <-done
	if report == nil {
		t.Fatal("no loadgen report")
	}
	if err := cl.WaitConverged(15 * time.Second); err != nil {
		t.Fatal(err)
	}

	ackedImps, ackedClks := rec.Acked()
	if len(ackedImps) == 0 {
		t.Skip("kill landed before any feedback was acknowledged; nothing to verify")
	}
	shards := cl.Node(promoted).Corpus().Shards()
	for page, imps := range ackedImps {
		li := cl.LeaderIndex(serve.ShardIndex(page, shards))
		if li < 0 {
			t.Fatalf("page %d: shard has no live leader", page)
		}
		st, ok := cl.Node(li).Corpus().Page(page)
		if !ok {
			t.Fatalf("acknowledged page %d missing on leader %s", page, cl.Node(li).ID())
		}
		if st.Impressions < imps || st.Clicks < ackedClks[page] {
			t.Fatalf("page %d: leader %s holds %d imp / %d clk, acked %d / %d",
				page, cl.Node(li).ID(), st.Impressions, st.Clicks, imps, ackedClks[page])
		}
	}
	if report.Failovers == 0 {
		t.Error("loadgen never re-resolved off the dead front door")
	}
}

// TestReplayReproducesLoadgenScorecard is the counterfactual-replay
// acceptance over real loadgen traffic: replaying the recorded WAL
// under the logged specs reproduces the live per-arm discovery counts,
// and swapping the exploring arm to the deterministic rule yields the
// documented collapsed scorecard (no discoveries without promotions).
func TestReplayReproducesLoadgenScorecard(t *testing.T) {
	const established = 40
	dir := t.TempDir()
	cfg := serve.Config{
		Shards:     4,
		Seed:       3,
		Durability: serve.Durability{DataDir: dir, KeepLog: true},
		Arms: []serve.Arm{
			{Name: "control", Policy: policy.Spec{Rule: policy.RuleDeterministic}, Weight: 1},
			{Name: "explore", Policy: policy.Spec{Rule: policy.RuleSelective, K: 1, R: 0.3}, Weight: 1},
		},
	}
	c, err := serve.NewCorpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < established; i++ {
		pop := float64(established-i) * 0.05
		if i%8 == 0 {
			pop = 0 // planted gems only promotion can surface
		}
		if err := c.Add(i, fmt.Sprintf("replayable topic page%d", i), pop); err != nil {
			t.Fatal(err)
		}
	}
	c.Sync()
	srv := httptest.NewServer(serve.NewServer(c))
	report, err := Run(Config{
		BaseURL:  srv.URL,
		Workers:  4,
		Requests: 1500,
		N:        15,
		Seed:     9,
		Quality: func(id int) float64 {
			if id%8 == 0 {
				return 0.9
			}
			return 0.05
		},
	})
	srv.Close()
	if err != nil {
		t.Fatal(err)
	}
	if report.Errors != 0 {
		t.Fatalf("load run errors: %v", report)
	}
	c.Sync()
	live := c.Arms()
	c.Close()
	if live[1].Discoveries == 0 {
		t.Fatal("exploring arm discovered nothing; fixture too small")
	}

	rep, err := serve.Replay(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.FullHistory {
		t.Fatalf("KeepLog run must replay full history: %+v", rep)
	}
	for i, arm := range rep.Arms {
		if arm.Discoveries != live[i].Discoveries {
			t.Errorf("arm %s: replay discoveries %d, live %d", arm.Name, arm.Discoveries, live[i].Discoveries)
		}
		if arm.Clicks != live[i].Clicks || arm.Impressions != live[i].Impressions {
			t.Errorf("arm %s: replay %d/%d, live %d/%d", arm.Name,
				arm.Impressions, arm.Clicks, live[i].Impressions, live[i].Clicks)
		}
		if arm.MeanTTFCMillis != live[i].MeanTTFCMillis {
			t.Errorf("arm %s: replay TTFC %v, live %v", arm.Name, arm.MeanTTFCMillis, live[i].MeanTTFCMillis)
		}
	}

	swapped, err := serve.Replay(dir, map[string]string{"explore": "none"})
	if err != nil {
		t.Fatal(err)
	}
	ex := swapped.Arms[1]
	if ex.Discoveries != 0 {
		t.Fatalf("deterministic counterfactual kept %d discoveries", ex.Discoveries)
	}
	if ex.EligibleClicks >= ex.Clicks {
		t.Fatalf("counterfactual must reject promotion-earned clicks: %+v", ex)
	}
}

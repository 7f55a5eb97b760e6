package shuffledeck_test

import (
	"fmt"
	"testing"

	shuffledeck "repro"
)

// TestLiveFeedbackLoop exercises the public Live corpus end to end: add
// documents, serve randomized rankings, ingest clicks, and watch a
// zero-awareness page get promoted into the deterministic top.
func TestLiveFeedbackLoop(t *testing.T) {
	live, err := shuffledeck.NewLive(shuffledeck.LiveOptions{Shards: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()

	for i := 0; i < 10; i++ {
		if err := live.Add(i, fmt.Sprintf("compilers survey page%d", i), float64(10-i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := live.Add(99, "compilers survey newcomer", 0); err != nil {
		t.Fatal(err)
	}
	live.Sync()

	res, err := live.RankSeeded("compilers survey", 11, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 11 {
		t.Fatalf("served %d results, want 11", len(res))
	}
	sawGem := false
	for slot, r := range res {
		if r.ID == 99 {
			sawGem = true
			if !r.Promoted {
				t.Fatalf("zero-awareness page served at slot %d without promotion tag", slot+1)
			}
		}
	}
	if !sawGem {
		t.Fatal("11-slot ranking of 11 pages omitted the pool page")
	}

	live.Feedback([]shuffledeck.LiveEvent{{Page: 99, Slot: 5, Impressions: 1, Clicks: 20}})
	live.Sync()
	st, ok := live.Page(99)
	if !ok || !st.Aware || st.Popularity != 20 {
		t.Fatalf("newcomer after clicks = %+v ok=%v", st, ok)
	}
	if top := live.Top(1); len(top) != 1 || top[0].ID != 99 {
		t.Fatalf("Top(1) = %+v, want the newcomer at rank 1", top)
	}
	stats := live.Stats()
	if stats.Pages != 11 || stats.ZeroAware != 0 || stats.ClicksApplied != 20 {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestLiveRejectsBadPolicy pins option validation.
func TestLiveRejectsBadPolicy(t *testing.T) {
	_, err := shuffledeck.NewLive(shuffledeck.LiveOptions{
		Policy: shuffledeck.Policy{Rule: shuffledeck.RuleSelective, K: 0, R: 2},
	})
	if err == nil {
		t.Fatal("NewLive accepted an invalid policy")
	}
}

// TestLiveDurableRestart covers the public durability surface: a Live
// corpus with a DataDir survives Close and comes back with its
// popularity, awareness and telemetry intact, reporting the recovery.
func TestLiveDurableRestart(t *testing.T) {
	dir := t.TempDir()
	opts := shuffledeck.LiveOptions{Shards: 2, Seed: 5, Durability: shuffledeck.LiveDurability{DataDir: dir}}
	live, err := shuffledeck.NewLive(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := live.Add(i, "live durable topic", float64(8-i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := live.Add(99, "live durable gem", 0); err != nil {
		t.Fatal(err)
	}
	live.Feedback([]shuffledeck.LiveEvent{{Page: 99, Slot: 3, Impressions: 1, Clicks: 5}})
	live.Sync()
	if h := live.Health(); !h.Durable || len(h.Shards) != 2 {
		t.Fatalf("health = %+v, want a 2-shard durable corpus", h)
	}
	live.Close()

	re, err := shuffledeck.NewLive(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if info := re.Recovery(); !info.Durable || info.Pages != 9 {
		t.Fatalf("recovery = %+v, want 9 durable pages", info)
	}
	gem, ok := re.Page(99)
	if !ok || !gem.Aware || gem.Popularity != 5 || gem.Clicks != 5 {
		t.Fatalf("gem after restart = %+v ok=%v", gem, ok)
	}
	if top := re.Top(1); len(top) != 1 || top[0].ID != 0 {
		t.Fatalf("Top(1) after restart = %+v", top)
	}
	res, err := re.Rank("live durable", 5)
	if err != nil || len(res) != 5 {
		t.Fatalf("query after restart: %d results, err %v", len(res), err)
	}
}

package serve

import (
	"testing"

	"repro/internal/policy"
)

// replayFixture records a deterministic two-arm session with KeepLog so
// the full history is replayable, and returns the data dir plus the live
// run's arm reports.
func replayFixture(t *testing.T) (string, []ArmReport) {
	t.Helper()
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.Durability.KeepLog = true
	c := newTestCorpusNoClose(t, cfg)
	seedDurable(t, c)
	// A second wave: reinforce one discovered gem, discover another.
	c.Feedback([]Event{
		{Page: 5, Slot: 1, Impressions: 1, Clicks: 1, Arm: "treatment"},
		{Page: 15, Slot: 4, Impressions: 1, Clicks: 1, Arm: "treatment"},
		{Page: 2, Slot: 2, Impressions: 1, Clicks: 1, Arm: "control"}, // aware page via control
	})
	c.Sync()
	live := c.Arms()
	c.Close()
	return dir, live
}

// TestReplayReproducesLiveScorecard is the replay acceptance: replaying
// the WAL under the specs that logged it reproduces the live per-arm
// discovery counts and time-to-first-click telemetry exactly.
func TestReplayReproducesLiveScorecard(t *testing.T) {
	dir, live := replayFixture(t)
	rep, err := Replay(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.FullHistory {
		t.Fatalf("KeepLog run must replay full history: %+v", rep)
	}
	if rep.Pages != 30 || len(rep.Arms) != 2 {
		t.Fatalf("replay shape: %+v", rep)
	}
	for i, arm := range rep.Arms {
		if arm.Name != live[i].Name {
			t.Fatalf("arm order: replay %q vs live %q", arm.Name, live[i].Name)
		}
		if arm.Policy != arm.LoggedPolicy {
			t.Fatalf("arm %s evaluated under %q, logged %q — no override requested", arm.Name, arm.Policy, arm.LoggedPolicy)
		}
		if arm.Discoveries != live[i].Discoveries {
			t.Errorf("arm %s: replay discoveries %d, live %d", arm.Name, arm.Discoveries, live[i].Discoveries)
		}
		if arm.Impressions != live[i].Impressions || arm.Clicks != live[i].Clicks {
			t.Errorf("arm %s: replay %d imps / %d clicks, live %d / %d",
				arm.Name, arm.Impressions, arm.Clicks, live[i].Impressions, live[i].Clicks)
		}
		if arm.MeanTTFCMillis != live[i].MeanTTFCMillis {
			t.Errorf("arm %s: replay TTFC %v, live %v", arm.Name, arm.MeanTTFCMillis, live[i].MeanTTFCMillis)
		}
	}
	// The treatment arm's clicks were all promotion-producible under its
	// own selective spec.
	if tr := rep.Arms[1]; tr.EligibleClicks != tr.Clicks || tr.Discoveries == 0 {
		t.Fatalf("treatment scorecard under own spec: %+v", tr)
	}
}

// TestReplayCounterfactualSwap re-evaluates the treatment arm's logged
// traffic under the deterministic rule: every discovery the promotions
// bought becomes unreachable, so the scorecard must collapse to zero
// discoveries while the aware-page clicks survive.
func TestReplayCounterfactualSwap(t *testing.T) {
	dir, live := replayFixture(t)
	rep, err := Replay(dir, map[string]string{"treatment": "none"})
	if err != nil {
		t.Fatal(err)
	}
	tr := rep.Arms[1]
	if tr.Policy != "none" || tr.LoggedPolicy == "none" {
		t.Fatalf("override not applied: %+v", tr)
	}
	if live[1].Discoveries == 0 {
		t.Fatal("fixture must have live treatment discoveries to make the counterfactual meaningful")
	}
	if tr.Discoveries != 0 {
		t.Fatalf("deterministic counterfactual kept %d discoveries; promotions are its only route to zero-awareness pages", tr.Discoveries)
	}
	if tr.Clicks == tr.EligibleClicks {
		t.Fatalf("counterfactual must reject the promotion-earned clicks: %+v", tr)
	}
	// The reinforcement click on the already-discovered gem (page 5,
	// second wave) rides on awareness earned by a promotion the
	// deterministic rule would never have made — but by then the page IS
	// aware, so the filter keeps it; the control arm is untouched either
	// way.
	if ctrl := rep.Arms[0]; ctrl.Discoveries != live[0].Discoveries || ctrl.Clicks != live[0].Clicks {
		t.Fatalf("control arm changed under a treatment override: %+v vs %+v", ctrl, live[0])
	}

	// Raising k above every logged slot de-eligibilizes promotions too.
	rep2, err := Replay(dir, map[string]string{"treatment": "selective:50:0.3"})
	if err != nil {
		t.Fatal(err)
	}
	if tr2 := rep2.Arms[1]; tr2.Discoveries != 0 {
		t.Fatalf("k=50 protects every logged slot, yet %d discoveries survived", tr2.Discoveries)
	}
}

// TestReplayFiltersPolicyInconsistentAttribution pins the filter
// semantics live counters deliberately lack: the live service credits a
// discovery to whatever arm the event names, but replay only credits
// clicks the named arm's policy could have produced. A zero-awareness
// click attributed to a deterministic arm is policy-impossible and must
// not score.
func TestReplayFiltersPolicyInconsistentAttribution(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.Durability.KeepLog = true
	c := newTestCorpusNoClose(t, cfg)
	if err := c.Add(1, "filter topic gem", 0); err != nil {
		t.Fatal(err)
	}
	c.Sync()
	c.Feedback([]Event{{Page: 1, Slot: 3, Impressions: 1, Clicks: 1, Arm: "control"}})
	c.Sync()
	live := c.Arms()
	c.Close()
	if live[0].Discoveries != 1 {
		t.Fatalf("live control credits by attribution alone: %+v", live[0])
	}
	rep, err := Replay(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ctrl := rep.Arms[0]; ctrl.Discoveries != 0 || ctrl.EligibleClicks != 0 || ctrl.Clicks != 1 {
		t.Fatalf("replay must reject the deterministic arm's impossible promotion click: %+v", ctrl)
	}
}

// TestReplayErrors pins the failure modes: unknown arm override, bad
// spec, not-a-corpus dir.
func TestReplayErrors(t *testing.T) {
	dir, _ := replayFixture(t)
	if _, err := Replay(dir, map[string]string{"nosucharm": "none"}); err == nil {
		t.Fatal("unknown arm override must fail")
	}
	if _, err := Replay(dir, map[string]string{"treatment": "bogus:1:2"}); err == nil {
		t.Fatal("unparseable override spec must fail")
	}
	if _, err := Replay(t.TempDir(), nil); err == nil {
		t.Fatal("replay of a non-corpus dir must fail")
	}
}

// TestReplayAfterKill replays a crashed (killed) corpus: the stream up
// to the crash scores identically to the live counters at kill time.
func TestReplayAfterKill(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.Durability.KeepLog = true
	c := newTestCorpusNoClose(t, cfg)
	seedDurable(t, c)
	live := c.Arms()
	c.Kill()
	rep, err := Replay(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Arms[1].Discoveries != live[1].Discoveries || rep.Arms[1].MeanTTFCMillis != live[1].MeanTTFCMillis {
		t.Fatalf("post-kill replay %+v vs live %+v", rep.Arms[1], live[1])
	}
}

// TestSpecCompactRoundTrips pins the colon rendering meta.json stores
// against the parser the replay evaluator uses.
func TestSpecCompactRoundTrips(t *testing.T) {
	for _, spec := range []policy.Spec{
		{Rule: policy.RuleDeterministic},
		{Rule: policy.RuleSelective, K: 1, R: 0.1},
		{Rule: policy.RuleUniform, K: 2, R: 0.3},
		{Rule: policy.RuleEpsilonDecay, K: 1, R: 0.2, RMin: 0.02},
	} {
		s := spec.Compact()
		parsed, err := policy.ParseSpec(s)
		if err != nil {
			t.Fatalf("Compact(%+v) = %q does not parse: %v", spec, s, err)
		}
		if parsed.Compact() != s {
			t.Fatalf("round trip %q -> %q", s, parsed.Compact())
		}
	}
}

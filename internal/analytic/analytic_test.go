package analytic

import (
	"math"
	"strings"
	"testing"

	"repro/internal/community"
	"repro/internal/policy"
	"repro/internal/quality"
)

// testBuckets returns the default community's quality multiset, bucketed.
func testBuckets(t testing.TB, n int) []quality.Bucket {
	t.Helper()
	qs := quality.DeterministicWithTop(quality.Default(), n)
	return quality.Buckets(qs, 40)
}

func solveFor(t testing.TB, pol policy.Spec) *Model {
	t.Helper()
	comm := community.Default()
	mdl, err := Solve(comm, pol, testBuckets(t, comm.Pages), Options{})
	if err != nil {
		t.Fatalf("Solve(%v): %v", pol, err)
	}
	return mdl
}

func TestSolveValidation(t *testing.T) {
	comm := community.Default()
	buckets := testBuckets(t, comm.Pages)
	if _, err := Solve(community.Config{}, policy.Recommended(), buckets, Options{}); err == nil {
		t.Error("invalid community accepted")
	}
	if _, err := Solve(comm, policy.Spec{Rule: policy.RuleSelective, K: 0, R: 0.1}, buckets, Options{}); err == nil {
		t.Error("invalid policy accepted")
	}
	if _, err := Solve(comm, policy.Recommended(), nil, Options{}); err == nil {
		t.Error("empty buckets accepted")
	}
	if _, err := Solve(comm, policy.Recommended(), buckets[:len(buckets)-1], Options{}); err == nil {
		t.Error("bucket count mismatch accepted")
	}
	bad := append([]quality.Bucket(nil), buckets...)
	bad[0].Q = -0.5
	if _, err := Solve(comm, policy.Recommended(), bad, Options{}); err == nil {
		t.Error("negative quality accepted")
	}
}

func TestSolveConverges(t *testing.T) {
	for _, pol := range []policy.Spec{
		{Rule: policy.RuleNone, K: 1},
		{Rule: policy.RuleSelective, K: 1, R: 0.1},
		{Rule: policy.RuleSelective, K: 1, R: 0.2},
		{Rule: policy.RuleSelective, K: 2, R: 0.1},
		{Rule: policy.RuleUniform, K: 1, R: 0.1},
		{Rule: policy.RuleUniform, K: 1, R: 0.2},
	} {
		mdl := solveFor(t, pol)
		if !mdl.Converged() {
			t.Errorf("%v did not converge in %d iterations", pol, mdl.Iterations())
		}
	}
}

func TestAwarenessDistributionIsDistribution(t *testing.T) {
	mdl := solveFor(t, policy.Recommended())
	for _, q := range []float64{0.001, 0.05, 0.4} {
		dist := mdl.AwarenessDistribution(q)
		if len(dist) != community.Default().MonitoredUsers+1 {
			t.Fatalf("dist length %d", len(dist))
		}
		sum := 0.0
		for i, f := range dist {
			if f < 0 || math.IsNaN(f) {
				t.Fatalf("q=%v: f(a_%d) = %v", q, i, f)
			}
			sum += f
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("q=%v: distribution sums to %v", q, sum)
		}
	}
}

// TestFigure3Shapes verifies the paper's Figure 3: under nonrandomized
// ranking most top-quality pages sit at near-zero awareness; under
// selective promotion (r=0.2, k=1) most sit at near-full awareness, and
// under both schemes little mass sits mid-scale.
func TestFigure3Shapes(t *testing.T) {
	none := solveFor(t, policy.Spec{Rule: policy.RuleNone, K: 1})
	sel := solveFor(t, policy.Spec{Rule: policy.RuleSelective, K: 1, R: 0.2})

	massBelow := func(m *Model, q, cut float64) float64 {
		dist := m.AwarenessDistribution(q)
		total := 0.0
		for i, f := range dist {
			if float64(i)/float64(len(dist)-1) < cut {
				total += f
			}
		}
		return total
	}
	q := 0.4
	if lo := massBelow(none, q, 0.2); lo < 0.7 {
		t.Errorf("nonrandomized: low-awareness mass = %v, want most pages stuck", lo)
	}
	if hi := 1 - massBelow(sel, q, 0.8); hi < 0.7 {
		t.Errorf("selective r=0.2: high-awareness mass = %v, want most pages popular", hi)
	}
	// Middle of the scale is sparsely populated under both (step-like
	// popularity evolution).
	mid := massBelow(none, q, 0.8) - massBelow(none, q, 0.2)
	if mid > 0.15 {
		t.Errorf("nonrandomized: mid-awareness mass = %v, want thin middle", mid)
	}
	midSel := massBelow(sel, q, 0.8) - massBelow(sel, q, 0.2)
	if midSel > 0.15 {
		t.Errorf("selective: mid-awareness mass = %v, want thin middle", midSel)
	}
}

func TestFMonotoneOnGrid(t *testing.T) {
	mdl := solveFor(t, policy.Recommended())
	prev := mdl.F(0.0001)
	for _, x := range []float64{0.001, 0.01, 0.1, 0.4} {
		cur := mdl.F(x)
		if cur < prev {
			t.Fatalf("F not nondecreasing: F(%v) = %v < %v", x, cur, prev)
		}
		prev = cur
	}
	if mdl.F(-1) != mdl.F0() {
		t.Error("F at negative popularity should return F(0)")
	}
	if mdl.F(0) != mdl.F0() {
		t.Error("F(0) should return the point value")
	}
}

func TestZeroAwareCountSelfConsistent(t *testing.T) {
	// z from the awareness chains must equal n·λ/(λ+F0).
	for _, pol := range []policy.Spec{
		{Rule: policy.RuleNone, K: 1},
		{Rule: policy.RuleSelective, K: 1, R: 0.1},
	} {
		mdl := solveFor(t, pol)
		comm := community.Default()
		want := float64(comm.Pages) * comm.RetirementRate() /
			(comm.RetirementRate() + mdl.F0())
		got := mdl.ExpectedZeroAware()
		if math.Abs(got-want)/want > 1e-6 {
			t.Errorf("%v: z = %v, want self-consistent %v", pol, got, want)
		}
	}
}

// TestTBPOrdering checks Figure 4(b)'s qualitative content: TBP decreases
// with r, and selective promotion beats uniform promotion at equal r.
func TestTBPOrdering(t *testing.T) {
	q := 0.4
	tbpNone := solveFor(t, policy.Spec{Rule: policy.RuleNone, K: 1}).TBP(q)
	tbpSel05 := solveFor(t, policy.Spec{Rule: policy.RuleSelective, K: 1, R: 0.05}).TBP(q)
	tbpSel10 := solveFor(t, policy.Spec{Rule: policy.RuleSelective, K: 1, R: 0.1}).TBP(q)
	tbpSel20 := solveFor(t, policy.Spec{Rule: policy.RuleSelective, K: 1, R: 0.2}).TBP(q)
	tbpUni10 := solveFor(t, policy.Spec{Rule: policy.RuleUniform, K: 1, R: 0.1}).TBP(q)
	tbpUni20 := solveFor(t, policy.Spec{Rule: policy.RuleUniform, K: 1, R: 0.2}).TBP(q)

	if !(tbpNone > tbpSel05 && tbpSel05 > tbpSel10 && tbpSel10 > tbpSel20) {
		t.Errorf("selective TBP not decreasing in r: none=%.0f r05=%.0f r10=%.0f r20=%.0f",
			tbpNone, tbpSel05, tbpSel10, tbpSel20)
	}
	if !(tbpSel10 < tbpUni10 && tbpSel20 < tbpUni20) {
		t.Errorf("selective should beat uniform: sel10=%.0f uni10=%.0f sel20=%.0f uni20=%.0f",
			tbpSel10, tbpUni10, tbpSel20, tbpUni20)
	}
	// Entrenchment is severe: nonrandomized TBP should exceed several
	// page lifetimes.
	if tbpNone < 3*community.Default().LifetimeDays {
		t.Errorf("nonrandomized TBP = %.0f days, expected heavy entrenchment", tbpNone)
	}
}

// TestQPCOrdering checks Figure 5's qualitative content: QPC rises with
// moderate r and selective promotion beats uniform at r=0.2.
func TestQPCOrdering(t *testing.T) {
	qpcNone := solveFor(t, policy.Spec{Rule: policy.RuleNone, K: 1}).QPC()
	qpcSel10 := solveFor(t, policy.Spec{Rule: policy.RuleSelective, K: 1, R: 0.1}).QPC()
	qpcSel20 := solveFor(t, policy.Spec{Rule: policy.RuleSelective, K: 1, R: 0.2}).QPC()
	qpcUni20 := solveFor(t, policy.Spec{Rule: policy.RuleUniform, K: 1, R: 0.2}).QPC()

	if !(qpcNone < qpcSel10 && qpcSel10 < qpcSel20) {
		t.Errorf("QPC not increasing: none=%.3f sel10=%.3f sel20=%.3f",
			qpcNone, qpcSel10, qpcSel20)
	}
	if qpcSel20 <= qpcUni20 {
		t.Errorf("selective %.3f should beat uniform %.3f at r=0.2", qpcSel20, qpcUni20)
	}
	for _, v := range []float64{qpcNone, qpcSel10, qpcSel20, qpcUni20} {
		if v <= 0 || v > 1 {
			t.Errorf("normalized QPC %v outside (0, 1]", v)
		}
	}
}

func TestIdealQPCBounds(t *testing.T) {
	mdl := solveFor(t, policy.Recommended())
	ideal := mdl.IdealQPC()
	// The ideal engine's QPC must be at least the best page's share and
	// at most the best quality.
	if ideal <= 0 || ideal > quality.DefaultMax {
		t.Fatalf("ideal QPC = %v", ideal)
	}
	if abs := mdl.AbsoluteQPC(); abs > ideal+1e-9 {
		t.Fatalf("absolute QPC %v exceeds ideal %v", abs, ideal)
	}
}

func TestPopularityTrajectoryShape(t *testing.T) {
	mdl := solveFor(t, policy.Spec{Rule: policy.RuleSelective, K: 1, R: 0.2})
	traj := mdl.PopularityTrajectory(0.4, 500)
	if len(traj) != 501 {
		t.Fatalf("trajectory length %d", len(traj))
	}
	if traj[0] != 0 {
		t.Fatalf("P(0) = %v, want 0", traj[0])
	}
	for i := 1; i < len(traj); i++ {
		if traj[i] < traj[i-1]-1e-12 {
			t.Fatalf("popularity decreased at day %d", i)
		}
		if traj[i] > 0.4+1e-12 {
			t.Fatalf("popularity %v exceeds quality", traj[i])
		}
	}
	// Under selective r=0.2 the page becomes popular well within its
	// lifetime (solved TBP ≈ 250 days < 547-day lifetime).
	if traj[500] < 0.99*0.4 {
		t.Errorf("P(500) = %v, want near 0.4 under aggressive promotion", traj[500])
	}
	if traj[50] >= traj[400] {
		t.Errorf("trajectory should climb: P(50)=%v P(400)=%v", traj[50], traj[400])
	}
}

func TestVisitTrajectoryMatchesF(t *testing.T) {
	mdl := solveFor(t, policy.Recommended())
	pop := mdl.PopularityTrajectory(0.4, 50)
	vis := mdl.VisitTrajectory(0.4, 50)
	for i := range pop {
		if math.Abs(vis[i]-mdl.F(pop[i])) > 1e-12 {
			t.Fatalf("visit trajectory diverges from F at day %d", i)
		}
	}
}

// TestFigure2Tradeoff verifies the exploration benefit / exploitation
// loss structure: promotion wins visits early (benefit > 0) and gives
// some back once both pages are popular (loss > 0), with net benefit for
// a high-quality page over its lifetime in the default community.
func TestFigure2Tradeoff(t *testing.T) {
	none := solveFor(t, policy.Spec{Rule: policy.RuleNone, K: 1})
	sel := solveFor(t, policy.Spec{Rule: policy.RuleSelective, K: 1, R: 0.2})
	days := int(community.Default().LifetimeDays)
	benefit, loss := sel.TradeoffAreas(none, 0.4, days)
	if benefit <= 0 {
		t.Fatalf("exploration benefit = %v, want positive", benefit)
	}
	if benefit <= loss {
		t.Errorf("benefit %v should exceed loss %v for a high-quality page", benefit, loss)
	}
}

func TestTBPDecreasesWithQuality(t *testing.T) {
	mdl := solveFor(t, policy.Recommended())
	hi := mdl.TBP(0.4)
	lo := mdl.TBP(0.05)
	if hi >= lo {
		t.Fatalf("TBP(0.4)=%v should be below TBP(0.05)=%v", hi, lo)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.GridSize <= 0 || o.MaxIterations <= 0 || o.Tolerance <= 0 || o.Damping <= 0 {
		t.Fatalf("defaults not applied: %+v", o)
	}
	custom := Options{GridSize: 32, MaxIterations: 10, Tolerance: 1e-2, Damping: 0.9}
	if custom.withDefaults() != custom {
		t.Fatal("explicit options overridden")
	}
}

func TestPolicyAccessor(t *testing.T) {
	mdl := solveFor(t, policy.RecommendedSafe())
	if mdl.Policy() != policy.RecommendedSafe() {
		t.Fatal("Policy() does not round-trip")
	}
}

// TestSolveRuleTable: Solve reads k and r from the spec's Params, so
// every spelling of the deterministic rule solves to the same model as
// none at (1, 0), and epsilon-decay, whose r moves with the corpus state,
// is refused even when its floor equals its start.
func TestSolveRuleTable(t *testing.T) {
	comm := community.Config{
		Pages: 100, Users: 10, MonitoredUsers: 5,
		TotalVisitsPerDay: 10, LifetimeDays: 60,
	}
	buckets := quality.Buckets(quality.DeterministicWithTop(quality.Default(), comm.Pages), 10)
	ref, err := Solve(comm, policy.Spec{Rule: policy.RuleNone, K: 1}, buckets, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		spec    policy.Spec
		wantErr string
	}{
		{"deterministic", policy.Spec{Rule: policy.RuleDeterministic}, ""},
		{"none without k", policy.Spec{Rule: policy.RuleNone}, ""},
		{"none ignores k and r", policy.Spec{Rule: policy.RuleNone, K: 5, R: 0.3}, ""},
		{"epsilon-decay", policy.Spec{Rule: policy.RuleEpsilonDecay, K: 1, R: 0.2, RMin: 0.02}, "state-dependent"},
		{"epsilon-decay at its floor", policy.Spec{Rule: policy.RuleEpsilonDecay, K: 1, R: 0.2, RMin: 0.2}, "state-dependent"},
	}
	for _, tc := range cases {
		mdl, err := Solve(comm, tc.spec, buckets, Options{})
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if mdl.QPC() != ref.QPC() || mdl.ExpectedZeroAware() != ref.ExpectedZeroAware() ||
			mdl.TBP(0.4) != ref.TBP(0.4) || mdl.Iterations() != ref.Iterations() {
			t.Errorf("%s: solved to QPC %v z %v TBP %v in %d rounds, none gives %v %v %v in %d",
				tc.name, mdl.QPC(), mdl.ExpectedZeroAware(), mdl.TBP(0.4), mdl.Iterations(),
				ref.QPC(), ref.ExpectedZeroAware(), ref.TBP(0.4), ref.Iterations())
		}
	}
}

func TestSmallCommunity(t *testing.T) {
	comm := community.Config{
		Pages: 100, Users: 10, MonitoredUsers: 5,
		TotalVisitsPerDay: 10, LifetimeDays: 60,
	}
	qs := quality.DeterministicWithTop(quality.Default(), comm.Pages)
	buckets := quality.Buckets(qs, 10)
	mdl, err := Solve(comm, policy.Recommended(), buckets, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if qpc := mdl.QPC(); qpc <= 0 || qpc > 1 {
		t.Fatalf("small community QPC = %v", qpc)
	}
	dist := mdl.AwarenessDistribution(0.4)
	if len(dist) != 6 {
		t.Fatalf("awareness levels = %d, want m+1 = 6", len(dist))
	}
}

// TestQPCBoundedQuick solves the model across random small communities
// and policies, checking the invariants 0 < QPC ≤ 1 and z ∈ (0, n].
func TestQPCBoundedQuick(t *testing.T) {
	rules := []string{policy.RuleNone, policy.RuleUniform, policy.RuleSelective}
	for i := 0; i < 12; i++ {
		n := 200 + 150*i
		comm := community.Config{
			Pages:             n,
			Users:             n/10 + 1,
			MonitoredUsers:    n/100 + 1,
			TotalVisitsPerDay: float64(n / 10),
			LifetimeDays:      float64(60 + 40*i),
		}
		pol := policy.Spec{Rule: rules[i%3], K: 1 + i%3, R: 0.05 * float64(i%5)}
		qs := quality.DeterministicWithTop(quality.Default(), comm.Pages)
		mdl, err := Solve(comm, pol, quality.Buckets(qs, 25), Options{})
		if err != nil {
			t.Fatalf("case %d (%v): %v", i, pol, err)
		}
		if q := mdl.QPC(); q <= 0 || q > 1+1e-9 {
			t.Errorf("case %d (%v): QPC = %v", i, pol, q)
		}
		if z := mdl.ExpectedZeroAware(); z <= 0 || z > float64(n) {
			t.Errorf("case %d (%v): z = %v", i, pol, z)
		}
	}
}

// F0 returns F(0), the expected visit rate of a zero-popularity page.
func (mdl *Model) F0() float64 { return mdl.f0 }

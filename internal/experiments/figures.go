package experiments

import (
	"fmt"
	"math"

	"repro/internal/analytic"
	"repro/internal/ascii"
	"repro/internal/community"
	"repro/internal/livestudy"
	"repro/internal/parexec"
	"repro/internal/policy"
	"repro/internal/quality"
	"repro/internal/sim"
	"repro/internal/stats"
)

// solveAnalytic builds the §5 model for the community and policy.
func solveAnalytic(comm community.Config, pol policy.Spec) (*analytic.Model, error) {
	qs := defaultQualities(comm.Pages)
	buckets := quality.Buckets(qs, 40)
	return analytic.Solve(comm, pol, buckets)
}

// solveAnalyticBatch solves the §5 model for several policies on the
// parallel grid, returning models in input order.
func solveAnalyticBatch(comm community.Config, pols []policy.Spec, o Options) ([]*analytic.Model, error) {
	jobs := make([]func() (*analytic.Model, error), len(pols))
	for i, p := range pols {
		p := p
		jobs[i] = func() (*analytic.Model, error) { return solveAnalytic(comm, p) }
	}
	// Analytic solves are side jobs of figure runners; they share the
	// grid configuration but not its progress stream (progress counts
	// simulation jobs only, so `done/total` stays meaningful).
	return parexec.Run(jobs, parexec.Options{Workers: o.Parallel})
}

// Figure1 reruns the Appendix A live study: two user groups, one with the
// k=21/r=1 selective promotion variant, measuring the funny-vote ratio
// over the final 15 days. The paper reports ≈ +60% improvement.
func Figure1(o Options) (*Table, error) {
	o = o.withDefaults()
	cfg := livestudy.Config{}
	if o.Quick {
		cfg.Items = 300
		cfg.UsersPerGroup = 120
		cfg.DurationDays = 30
		cfg.MeasureLastDays = 10
		cfg.ItemLifetimeDays = 20
	}
	jobs := make([]func() (*livestudy.Result, error), o.Seeds)
	for i := 0; i < o.Seeds; i++ {
		cfg := cfg
		cfg.Seed = o.Seed + uint64(i)
		jobs[i] = func() (*livestudy.Result, error) { return livestudy.Run(cfg) }
	}
	results, err := parexec.Run(jobs, o.grid())
	if err != nil {
		return nil, err
	}
	var ctrl, treat, imps, exps []float64
	for _, res := range results {
		ctrl = append(ctrl, res.Control.FunnyRatio)
		treat = append(treat, res.Treatment.FunnyRatio)
		imps = append(imps, res.Improvement)
		if exp, _, err := res.Control.RankBiasExponent(); err == nil {
			exps = append(exps, exp)
		}
	}
	sc, st, si := stats.Summarize(ctrl), stats.Summarize(treat), stats.Summarize(imps)
	se := stats.Summarize(exps)
	t := &Table{
		ID:      "fig1",
		Title:   "Live study: ratio of funny votes (paper: 0.22 without vs 0.35 with, ~+60%)",
		Columns: []string{"group", "funny-vote ratio", "95% CI"},
		Rows: [][]string{
			{"without rank promotion", fmt.Sprintf("%.3f", sc.Mean), fmt.Sprintf("±%.3f", sc.CI95())},
			{"with rank promotion", fmt.Sprintf("%.3f", st.Mean), fmt.Sprintf("±%.3f", st.CI95())},
		},
		Notes: []string{
			fmt.Sprintf("improvement %+.0f%% ± %.0f%% over %d runs (paper: ~+60%%)",
				100*si.Mean, 100*si.CI95(), si.N),
			fmt.Sprintf("A.2 check: rank-vs-visits power-law exponent %.2f (paper: ~-1.5)", se.Mean),
		},
	}
	return t, nil
}

// Figure2 reproduces the conceptual tradeoff figure: the visit-rate curve
// of one high-quality page over its lifetime with and without promotion,
// and the integrated exploration-benefit and exploitation-loss areas.
func Figure2(o Options) (*Table, error) {
	o = o.withDefaults()
	comm := baseCommunity(o)
	none, err := solveAnalytic(comm, policy.Spec{Rule: policy.RuleNone, K: 1})
	if err != nil {
		return nil, err
	}
	promo, err := solveAnalytic(comm, policy.Spec{Rule: policy.RuleSelective, K: 1, R: 0.2})
	if err != nil {
		return nil, err
	}
	q := quality.DefaultMax
	days := int(comm.LifetimeDays)
	with := promo.VisitTrajectory(q, days)
	without := none.VisitTrajectory(q, days)
	benefit, loss := promo.TradeoffAreas(none, q, days)

	xs := make([]float64, 0, 32)
	yw := make([]float64, 0, 32)
	yo := make([]float64, 0, 32)
	step := days / 30
	if step < 1 {
		step = 1
	}
	rows := [][]string{}
	for d := 0; d <= days; d += step {
		xs = append(xs, float64(d))
		yw = append(yw, with[d])
		yo = append(yo, without[d])
		if d%(step*5) == 0 {
			rows = append(rows, []string{
				fmt.Sprintf("%d", d),
				fmt.Sprintf("%.3f", with[d]),
				fmt.Sprintf("%.3f", without[d]),
			})
		}
	}
	// The trajectory-difference loss underestimates the exploitation cost
	// when the unpromoted page never becomes popular within its lifetime
	// (its curve stays at zero). The steady-state demotion deficit — how
	// many visits per day an already-popular page gives up because
	// promoted pages displace it — is the figure's other shaded area.
	demotion := none.ExactF(q) - promo.ExactF(q)
	if demotion < 0 {
		demotion = 0
	}
	return &Table{
		ID:      "fig2",
		Title:   "Visit rate of a Q=0.4 page over one lifetime (exploration vs exploitation)",
		Columns: []string{"day", "with promotion (visits/day)", "without promotion"},
		Rows:    rows,
		Series: []ascii.Series{
			{Name: "with rank promotion", X: xs, Y: yw},
			{Name: "without rank promotion", X: xs, Y: yo},
		},
		XLabel: "day",
		Notes: []string{
			fmt.Sprintf("exploration benefit = %.0f visits, trajectory-difference loss = %.0f visits over %d days",
				benefit, loss, days),
			fmt.Sprintf("steady-state exploitation loss: a popular page gives up %.1f visits/day to promoted pages",
				demotion),
		},
	}, nil
}

// Figure3 reproduces the steady-state awareness distribution of
// top-quality pages under nonrandomized ranking and under selective
// promotion (r=0.2, k=1).
func Figure3(o Options) (*Table, error) {
	o = o.withDefaults()
	comm := baseCommunity(o)
	none, err := solveAnalytic(comm, policy.Spec{Rule: policy.RuleNone, K: 1})
	if err != nil {
		return nil, err
	}
	sel, err := solveAnalytic(comm, policy.Spec{Rule: policy.RuleSelective, K: 1, R: 0.2})
	if err != nil {
		return nil, err
	}
	q := quality.DefaultMax
	distNone := none.AwarenessDistribution(q)
	distSel := sel.AwarenessDistribution(q)
	// Bin awareness into tenths for the table/chart.
	const bins = 10
	binned := func(dist []float64) []float64 {
		out := make([]float64, bins)
		m := len(dist) - 1
		for i, f := range dist {
			b := i * bins / (m + 1)
			if b >= bins {
				b = bins - 1
			}
			out[b] += f
		}
		return out
	}
	bn, bs := binned(distNone), binned(distSel)
	t := &Table{
		ID:      "fig3",
		Title:   "Awareness distribution of highest-quality pages (probability mass per awareness band)",
		Columns: []string{"awareness", "no randomization", "selective (r=0.2, k=1)"},
		XLabel:  "awareness",
	}
	xs := make([]float64, bins)
	for b := 0; b < bins; b++ {
		xs[b] = (float64(b) + 0.5) / bins
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.1f–%.1f", float64(b)/bins, float64(b+1)/bins),
			fmt.Sprintf("%.3f", bn[b]),
			fmt.Sprintf("%.3f", bs[b]),
		})
	}
	t.Series = []ascii.Series{
		{Name: "no randomization", X: xs, Y: bn},
		{Name: "selective randomization (r=0.2, k=1)", X: xs, Y: bs},
	}
	t.Notes = []string{
		"paper: without randomization most top-quality pages sit near zero awareness;",
		"with selective promotion most sit near full awareness, with a thin middle",
	}
	return t, nil
}

// Figure4a reproduces the analytic popularity-evolution curves of a
// Q=0.4 page under nonrandomized, uniform (r=0.2) and selective (r=0.2)
// ranking.
func Figure4a(o Options) (*Table, error) {
	o = o.withDefaults()
	comm := baseCommunity(o)
	days := 500
	if o.Quick {
		days = 300
	}
	q := quality.DefaultMax
	policies := []struct {
		name string
		pol  policy.Spec
	}{
		{"no randomization", policy.Spec{Rule: policy.RuleNone, K: 1}},
		{"uniform randomization (r=0.2)", policy.Spec{Rule: policy.RuleUniform, K: 1, R: 0.2}},
		{"selective randomization (r=0.2)", policy.Spec{Rule: policy.RuleSelective, K: 1, R: 0.2}},
	}
	t := &Table{
		ID:      "fig4a",
		Title:   "Popularity evolution of a page of quality Q=0.4 (analytic)",
		Columns: []string{"day"},
		XLabel:  "day",
	}
	var trajs [][]float64
	for _, p := range policies {
		mdl, err := solveAnalytic(comm, p.pol)
		if err != nil {
			return nil, err
		}
		trajs = append(trajs, mdl.PopularityTrajectory(q, days))
		t.Columns = append(t.Columns, p.name)
	}
	step := days / 25
	if step < 1 {
		step = 1
	}
	var xs []float64
	ys := make([][]float64, len(policies))
	for d := 0; d <= days; d += step {
		xs = append(xs, float64(d))
		row := []string{fmt.Sprintf("%d", d)}
		for i := range policies {
			ys[i] = append(ys[i], trajs[i][d])
			row = append(row, fmt.Sprintf("%.3f", trajs[i][d]))
		}
		if d%(5*step) == 0 {
			t.Rows = append(t.Rows, row)
		}
	}
	for i, p := range policies {
		t.Series = append(t.Series, ascii.Series{Name: p.name, X: xs, Y: ys[i]})
	}
	t.Notes = []string{
		"paper: selective promotion rises first, uniform second, nonrandomized last;",
		"under nonrandomized ranking the expected wait for discovery exceeds the page lifetime",
	}
	return t, nil
}

// tbpSpec builds the grid spec measuring simulated TBP for one policy
// via an immortal recycled probe.
func tbpSpec(comm community.Config, pol policy.Spec, qs []float64, o Options) simSpec {
	return simSpec{comm: comm, pol: pol, qs: qs, mutate: func(opts *sim.Options) {
		opts.TrackTBP = true
		opts.RecycleProbe = true
		opts.ImmortalProbe = true
		opts.MeasureDays = int(6 * comm.LifetimeDays)
		if o.Quick {
			opts.MeasureDays = int(3 * comm.LifetimeDays)
		}
	}}
}

// tbpFromResults aggregates one spec's replications into a mean TBP and
// a completed-observation count. NaN means no probe ever completed.
func tbpFromResults(rs []*sim.Result) (float64, int) {
	var all []float64
	done := 0
	for _, res := range rs {
		if res.ProbesCompleted > 0 {
			all = append(all, res.TBP.Mean)
			done += res.ProbesCompleted
		}
	}
	if len(all) == 0 {
		return math.NaN(), 0
	}
	return stats.Summarize(all).Mean, done
}

// Figure4b reproduces TBP versus degree of randomization for selective
// and uniform promotion, analysis beside simulation.
func Figure4b(o Options) (*Table, error) {
	o = o.withDefaults()
	comm := baseCommunity(o)
	qs := defaultQualities(comm.Pages)
	rs := []float64{0.02, 0.05, 0.1, 0.15, 0.2}
	if o.Quick {
		rs = []float64{0.05, 0.2}
	}
	t := &Table{
		ID:    "fig4b",
		Title: "TBP (days) for a Q=0.4 page vs degree of randomization r (k=1)",
		Columns: []string{"r", "selective (analysis)", "selective (simulation)",
			"uniform (analysis)", "uniform (simulation)"},
		XLabel: "r",
	}
	// The 2·len(rs) analytic solves run as one parallel batch, then
	// every (r × rule × seed) probe simulation fans out in a second
	// grid submission.
	var pols []policy.Spec
	var specs []simSpec
	for _, r := range rs {
		selPol := policy.Spec{Rule: policy.RuleSelective, K: 1, R: r}
		uniPol := policy.Spec{Rule: policy.RuleUniform, K: 1, R: r}
		pols = append(pols, selPol, uniPol)
		specs = append(specs, tbpSpec(comm, selPol, qs, o), tbpSpec(comm, uniPol, qs, o))
	}
	mdls, err := solveAnalyticBatch(comm, pols, o)
	if err != nil {
		return nil, err
	}
	grid, err := runSpecGrid(specs, o)
	if err != nil {
		return nil, err
	}
	var xs, selA, selS, uniA, uniS []float64
	for ri, r := range rs {
		q := quality.DefaultMax
		aSel, aUni := mdls[2*ri].TBP(q), mdls[2*ri+1].TBP(q)
		sSel, nSel := tbpFromResults(grid[2*ri])
		sUni, nUni := tbpFromResults(grid[2*ri+1])
		fmtSim := func(v float64, n int) string {
			if math.IsNaN(v) {
				return "no completion"
			}
			return fmt.Sprintf("%.0f (n=%d)", v, n)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", r),
			fmt.Sprintf("%.0f", aSel), fmtSim(sSel, nSel),
			fmt.Sprintf("%.0f", aUni), fmtSim(sUni, nUni),
		})
		xs = append(xs, r)
		selA = append(selA, aSel)
		uniA = append(uniA, aUni)
		if !math.IsNaN(sSel) {
			selS = append(selS, sSel)
		} else {
			selS = append(selS, 0)
		}
		if !math.IsNaN(sUni) {
			uniS = append(uniS, sUni)
		} else {
			uniS = append(uniS, 0)
		}
	}
	t.Series = []ascii.Series{
		{Name: "selective (analysis)", X: xs, Y: selA},
		{Name: "selective (simulation)", X: xs, Y: selS},
		{Name: "uniform (analysis)", X: xs, Y: uniA},
		{Name: "uniform (simulation)", X: xs, Y: uniS},
	}
	t.Notes = []string{
		"paper: TBP falls steeply with r and selective beats uniform at every r;",
		"at r→0 TBP exceeds the plotted range (the paper clips its axis at 500 days)",
	}
	return t, nil
}

// Figure5 reproduces normalized QPC versus degree of randomization for
// selective and uniform promotion, analysis beside simulation (k=1).
func Figure5(o Options) (*Table, error) {
	o = o.withDefaults()
	comm := baseCommunity(o)
	qs := defaultQualities(comm.Pages)
	rs := []float64{0, 0.05, 0.1, 0.15, 0.2}
	if o.Quick {
		rs = []float64{0, 0.1, 0.2}
	}
	t := &Table{
		ID:    "fig5",
		Title: "Normalized QPC vs degree of randomization r (k=1)",
		Columns: []string{"r", "selective (analysis)", "selective (simulation)",
			"uniform (analysis)", "uniform (simulation)"},
		XLabel: "r",
	}
	// The analytic solves run as one parallel batch, then a single grid
	// submission covers every (r × rule × seed) simulation. Policies are
	// deduplicated (at r=0 selective and uniform collapse to RuleNone),
	// so no worker slot repeats an identical job.
	var pols []policy.Spec
	polIdx := map[policy.Spec]int{}
	idxOf := func(p policy.Spec) int {
		if i, ok := polIdx[p]; ok {
			return i
		}
		polIdx[p] = len(pols)
		pols = append(pols, p)
		return polIdx[p]
	}
	cells := make([][2]int, len(rs)) // per r: indexes of (selective, uniform)
	for ri, r := range rs {
		selPol := policy.Spec{Rule: policy.RuleSelective, K: 1, R: r}
		uniPol := policy.Spec{Rule: policy.RuleUniform, K: 1, R: r}
		if r == 0 {
			selPol = policy.Spec{Rule: policy.RuleNone, K: 1}
			uniPol = selPol
		}
		cells[ri] = [2]int{idxOf(selPol), idxOf(uniPol)}
	}
	mdls, err := solveAnalyticBatch(comm, pols, o)
	if err != nil {
		return nil, err
	}
	specs := make([]simSpec, len(pols))
	for i, p := range pols {
		specs[i] = simSpec{comm: comm, pol: p, qs: qs}
	}
	sums, err := batchQPC(specs, o)
	if err != nil {
		return nil, err
	}
	var xs, selA, selS, uniA, uniS []float64
	for ri, r := range rs {
		mdlSel, mdlUni := mdls[cells[ri][0]], mdls[cells[ri][1]]
		simSel, simUni := sums[cells[ri][0]], sums[cells[ri][1]]
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", r),
			fmt.Sprintf("%.3f", mdlSel.QPC()),
			fmt.Sprintf("%.3f ± %.3f", simSel.Mean, simSel.CI95()),
			fmt.Sprintf("%.3f", mdlUni.QPC()),
			fmt.Sprintf("%.3f ± %.3f", simUni.Mean, simUni.CI95()),
		})
		xs = append(xs, r)
		selA = append(selA, mdlSel.QPC())
		selS = append(selS, simSel.Mean)
		uniA = append(uniA, mdlUni.QPC())
		uniS = append(uniS, simUni.Mean)
	}
	t.Series = []ascii.Series{
		{Name: "selective (analysis)", X: xs, Y: selA},
		{Name: "selective (simulation)", X: xs, Y: selS},
		{Name: "uniform (analysis)", X: xs, Y: uniA},
		{Name: "uniform (simulation)", X: xs, Y: uniS},
	}
	t.Notes = []string{"paper: QPC rises substantially with moderate r, more under selective promotion"}
	return t, nil
}

// Figure6 reproduces the simulation sweep of QPC against r and the
// starting point k under selective promotion.
func Figure6(o Options) (*Table, error) {
	o = o.withDefaults()
	comm := baseCommunity(o)
	qs := defaultQualities(comm.Pages)
	rs := []float64{0, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0}
	ks := []int{1, 2, 6, 11, 21}
	if o.Quick {
		rs = []float64{0, 0.2, 1.0}
		ks = []int{1, 21}
	}
	t := &Table{
		ID:      "fig6",
		Title:   "Normalized QPC vs r and k (selective promotion, simulation)",
		Columns: []string{"r"},
		XLabel:  "r",
	}
	for _, k := range ks {
		t.Columns = append(t.Columns, fmt.Sprintf("k=%d", k))
	}
	series := make([]ascii.Series, len(ks))
	for i, k := range ks {
		series[i].Name = fmt.Sprintf("k=%d", k)
	}
	// The full r × k product goes to the grid as one submission, with
	// duplicate policies collapsed (every k shares the single RuleNone
	// run at r=0).
	var specs []simSpec
	polIdx := map[policy.Spec]int{}
	cells := make([][]int, len(rs))
	for ri, r := range rs {
		cells[ri] = make([]int, len(ks))
		for i, k := range ks {
			pol := policy.Spec{Rule: policy.RuleSelective, K: k, R: r}
			if r == 0 {
				pol = policy.Spec{Rule: policy.RuleNone, K: 1}
			}
			idx, ok := polIdx[pol]
			if !ok {
				idx = len(specs)
				polIdx[pol] = idx
				specs = append(specs, simSpec{comm: comm, pol: pol, qs: qs})
			}
			cells[ri][i] = idx
		}
	}
	sums, err := batchQPC(specs, o)
	if err != nil {
		return nil, err
	}
	for ri, r := range rs {
		row := []string{fmt.Sprintf("%.1f", r)}
		for i := range ks {
			s := sums[cells[ri][i]]
			row = append(row, fmt.Sprintf("%.3f", s.Mean))
			series[i].X = append(series[i].X, r)
			series[i].Y = append(series[i].Y, s.Mean)
		}
		t.Rows = append(t.Rows, row)
	}
	t.Series = series
	t.Notes = []string{
		"paper: small k peaks at small r then declines; larger k needs larger r;",
		"r=0.1 with k in {1,2} captures most of the attainable QPC",
	}
	return t, nil
}

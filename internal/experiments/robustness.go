package experiments

import (
	"fmt"

	"repro/internal/ascii"
	"repro/internal/community"
	"repro/internal/policy"
	"repro/internal/sim"
)

// robustnessPolicies are the three ranking methods of Section 7.
func robustnessPolicies() []struct {
	name string
	pol  policy.Spec
} {
	return []struct {
		name string
		pol  policy.Spec
	}{
		{"no randomization", policy.Spec{Rule: policy.RuleNone, K: 1}},
		{"selective (k=1, r=0.1)", policy.Recommended()},
		{"selective (k=2, r=0.1)", policy.RecommendedSafe()},
	}
}

// sweep runs the three Section 7 ranking methods over a list of
// communities and assembles a table keyed by the x-axis values.
func sweep(id, title, xLabel string, xs []float64, comms []community.Config,
	o Options, logX bool) (*Table, error) {
	pols := robustnessPolicies()
	t := &Table{
		ID:    id,
		Title: title,
		Columns: append([]string{xLabel}, func() []string {
			var names []string
			for _, p := range pols {
				names = append(names, p.name)
			}
			return names
		}()...),
		XLabel: xLabel,
		LogX:   logX,
	}
	series := make([]ascii.Series, len(pols))
	for i, p := range pols {
		series[i].Name = p.name
	}
	// All (community × policy × seed) runs go to the grid at once; the
	// quality multiset is shared read-only across each community's jobs.
	var specs []simSpec
	for _, comm := range comms {
		qs := defaultQualities(comm.Pages)
		for _, p := range pols {
			specs = append(specs, simSpec{comm: comm, pol: p.pol, qs: qs})
		}
	}
	sums, err := batchQPC(specs, o)
	if err != nil {
		return nil, err
	}
	for xi := range comms {
		row := []string{formatX(xs[xi])}
		for pi := range pols {
			s := sums[xi*len(pols)+pi]
			row = append(row, fmt.Sprintf("%.3f", s.Mean))
			series[pi].X = append(series[pi].X, xs[xi])
			series[pi].Y = append(series[pi].Y, s.Mean)
		}
		t.Rows = append(t.Rows, row)
	}
	t.Series = series
	return t, nil
}

func formatX(x float64) string {
	if x >= 1000 {
		return fmt.Sprintf("%.0e", x)
	}
	return fmt.Sprintf("%g", x)
}

// Figure7a sweeps community size n with the paper's fixed proportions
// (u/n=10%, m/u=10%, vu/u=1).
func Figure7a(o Options) (*Table, error) {
	o = o.withDefaults()
	sizes := []int{1000, 10000, 100000}
	if o.Quick {
		sizes = []int{500, 2000}
	}
	if o.Long {
		sizes = append(sizes, 1000000)
	}
	var xs []float64
	var comms []community.Config
	for _, n := range sizes {
		xs = append(xs, float64(n))
		comms = append(comms, community.Scaled(n))
	}
	t, err := sweep("fig7a", "Normalized QPC vs community size n", "n", xs, comms, o, true)
	if err != nil {
		return nil, err
	}
	t.Notes = []string{
		"paper: nonrandomized QPC declines with size; selective promotion stays high and steady",
	}
	return t, nil
}

// Figure7b sweeps expected page lifetime.
func Figure7b(o Options) (*Table, error) {
	o = o.withDefaults()
	years := []float64{0.5, 1.5, 2.5, 3.5, 4.5}
	if o.Quick {
		years = []float64{0.5, 1.5}
	}
	var xs []float64
	var comms []community.Config
	for _, y := range years {
		xs = append(xs, y)
		c := baseCommunity(o).WithLifetimeYears(y)
		if o.Quick {
			// Keep quick mode fast: scale lifetimes down by the same
			// factor as the quick community's base lifetime.
			c = baseCommunity(o)
			c.LifetimeDays = y / 1.5 * 120
		}
		comms = append(comms, c)
	}
	t, err := sweep("fig7b", "Normalized QPC vs expected page lifetime l (years)", "lifetime", xs, comms, o, false)
	if err != nil {
		return nil, err
	}
	t.Notes = []string{
		"paper: less churn (longer lifetime) lifts all methods; the margin of",
		"improvement from randomization grows with lifetime",
	}
	return t, nil
}

// Figure7c sweeps the aggregate visit rate vu, holding n=10^4, l=1.5y,
// vu/u=1 and m/u=10%.
func Figure7c(o Options) (*Table, error) {
	o = o.withDefaults()
	rates := []float64{10, 100, 1000, 10000, 100000}
	if o.Quick {
		rates = []float64{20, 200, 2000}
	}
	if o.Long {
		rates = append(rates, 1000000)
	}
	var xs []float64
	var comms []community.Config
	for _, vu := range rates {
		xs = append(xs, vu)
		c := baseCommunity(o).WithTotalVisits(vu)
		comms = append(comms, c)
	}
	t, err := sweep("fig7c", "Normalized QPC vs total visit rate vu (visits/day)", "vu", xs, comms, o, true)
	if err != nil {
		return nil, err
	}
	t.Notes = []string{
		"paper: popularity ranking fails at very low visit rates; at very high rates",
		"randomization is unnecessary (but harmless); the gain is largest within an",
		"order of magnitude of 0.1·n visits/day",
		"(the paper's 10^7 point is omitted: it needs ~10^9 visit events; shape is",
		"established by the 10^5–10^6 points)",
	}
	return t, nil
}

// Figure7d sweeps the user population u, holding vu=1000 fixed and
// m/u=10%.
func Figure7d(o Options) (*Table, error) {
	o = o.withDefaults()
	users := []int{100, 1000, 10000, 100000, 1000000}
	if o.Quick {
		users = []int{100, 1000, 10000}
	}
	var xs []float64
	var comms []community.Config
	for _, u := range users {
		xs = append(xs, float64(u))
		comms = append(comms, baseCommunity(o).WithUsers(u))
	}
	t, err := sweep("fig7d", "Normalized QPC vs user population u (vu fixed)", "u", xs, comms, o, true)
	if err != nil {
		return nil, err
	}
	t.Notes = []string{
		"paper: all methods degrade somewhat as the same visit budget spreads over",
		"more users (a stray visit provides less awareness traction), with ratios",
		"roughly preserved",
	}
	return t, nil
}

// Figure8 reproduces the mixed surfing study: absolute QPC versus the
// fraction x of random surfing, for the three ranking methods, with
// teleportation probability c=0.15.
func Figure8(o Options) (*Table, error) {
	o = o.withDefaults()
	comm := baseCommunity(o)
	qs := defaultQualities(comm.Pages)
	fractions := []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0}
	if o.Quick {
		fractions = []float64{0, 0.5, 1.0}
	}
	pols := robustnessPolicies()
	t := &Table{
		ID:      "fig8",
		Title:   "Absolute QPC vs fraction of random surfing x (teleport c=0.15)",
		Columns: []string{"x"},
		XLabel:  "x",
	}
	for _, p := range pols {
		t.Columns = append(t.Columns, p.name)
	}
	series := make([]ascii.Series, len(pols))
	for i, p := range pols {
		series[i].Name = p.name
	}
	var specs []simSpec
	for _, x := range fractions {
		x := x
		for _, p := range pols {
			specs = append(specs, simSpec{comm: comm, pol: p.pol, qs: qs,
				mutate: func(opts *sim.Options) {
					opts.Mixed = &sim.MixedSurfing{X: x, C: 0.15}
				}})
		}
	}
	sums, err := batchAbsQPC(specs, o)
	if err != nil {
		return nil, err
	}
	for xi, x := range fractions {
		row := []string{fmt.Sprintf("%.1f", x)}
		for pi := range pols {
			s := sums[xi*len(pols)+pi]
			row = append(row, fmt.Sprintf("%.4f", s.Mean))
			series[pi].X = append(series[pi].X, x)
			series[pi].Y = append(series[pi].Y, s.Mean)
		}
		t.Rows = append(t.Rows, row)
	}
	t.Series = series
	t.Notes = []string{
		"paper: randomized promotion is never worse than nonrandomized at any x;",
		"a little random surfing helps nonrandomized ranking, too much hurts everyone",
	}
	return t, nil
}

// Recommendation verifies the §6.4 recipe on the default community:
// 10% selective randomization at k=1 or k=2 captures most of the QPC
// benefit while barely perturbing results.
func Recommendation(o Options) (*Table, error) {
	o = o.withDefaults()
	comm := baseCommunity(o)
	qs := defaultQualities(comm.Pages)
	cases := []struct {
		name string
		pol  policy.Spec
	}{
		{"no randomization", policy.Spec{Rule: policy.RuleNone, K: 1}},
		{"selective r=0.1 k=1 (recommended)", policy.Recommended()},
		{"selective r=0.1 k=2 (recommended, safe top)", policy.RecommendedSafe()},
		{"selective r=0.2 k=1 (more aggressive)", policy.Spec{Rule: policy.RuleSelective, K: 1, R: 0.2}},
	}
	t := &Table{
		ID:      "rec",
		Title:   "Recommendation check (§6.4): QPC of the recommended recipe",
		Columns: []string{"ranking method", "normalized QPC", "95% CI"},
	}
	specs := make([]simSpec, len(cases))
	for i, c := range cases {
		specs[i] = simSpec{comm: comm, pol: c.pol, qs: qs}
	}
	sums, err := batchQPC(specs, o)
	if err != nil {
		return nil, err
	}
	for i, c := range cases {
		s := sums[i]
		t.Rows = append(t.Rows, []string{
			c.name, fmt.Sprintf("%.3f", s.Mean), fmt.Sprintf("±%.3f", s.CI95()),
		})
	}
	t.Notes = []string{
		"paper: 10% randomization achieves most of the benefit of rank promotion",
	}
	return t, nil
}

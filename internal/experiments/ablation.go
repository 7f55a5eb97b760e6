package experiments

import (
	"fmt"

	"repro/internal/policy"
	"repro/internal/sim"
)

// Footnote1 is an ablation the paper only conjectures about (footnote 1
// of §5.1): if page lifetime is positively correlated with popularity,
// entrenched pages persist longer and entrenchment worsens. We rerun the
// default community with popular pages living up to 5× longer and compare
// QPC and the undiscovered-page count under deterministic ranking and
// under the recommended promotion policy.
func Footnote1(o Options) (*Table, error) {
	o = o.withDefaults()
	comm := baseCommunity(o)
	qs := defaultQualities(comm.Pages)
	cases := []struct {
		name      string
		pol       policy.Spec
		longevity float64
	}{
		{"no randomization, independent lifetimes", policy.Spec{Rule: policy.RuleNone, K: 1}, 0},
		{"no randomization, popular live 5x longer", policy.Spec{Rule: policy.RuleNone, K: 1}, 5},
		{"recommended, independent lifetimes", policy.Recommended(), 0},
		{"recommended, popular live 5x longer", policy.Recommended(), 5},
	}
	t := &Table{
		ID:      "fn1",
		Title:   "Ablation (§5.1 footnote 1): popularity-correlated page lifetimes",
		Columns: []string{"configuration", "normalized QPC", "undiscovered pages"},
	}
	specs := make([]simSpec, len(cases))
	for i, c := range cases {
		longevity := c.longevity
		specs[i] = simSpec{comm: comm, pol: c.pol, qs: qs,
			mutate: func(opts *sim.Options) { opts.PopularLongevity = longevity }}
	}
	grid, err := runSpecGrid(specs, o)
	if err != nil {
		return nil, err
	}
	for i, c := range cases {
		var qpcs, zs []float64
		for _, res := range grid[i] {
			qpcs = append(qpcs, res.QPC)
			zs = append(zs, res.MeanZeroAware)
		}
		t.Rows = append(t.Rows, []string{
			c.name,
			fmt.Sprintf("%.3f", mean(qpcs)),
			fmt.Sprintf("%.0f", mean(zs)),
		})
	}
	t.Notes = []string{
		"the paper conjectures correlated lifetimes make entrenchment worse than",
		"its model predicts; promotion's advantage should persist or grow",
	}
	return t, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

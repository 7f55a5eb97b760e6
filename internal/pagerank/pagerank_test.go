package pagerank

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/randutil"
	"repro/internal/stats"
)

func mustBuilder(t *testing.T, n int) *Builder {
	t.Helper()
	b, err := NewBuilder(n)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func addEdges(t *testing.T, b *Builder, edges [][2]int) {
	t.Helper()
	for _, e := range edges {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBuilderValidation(t *testing.T) {
	if _, err := NewBuilder(0); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := NewBuilder(-5); err == nil {
		t.Error("negative nodes accepted")
	}
	b := mustBuilder(t, 3)
	if err := b.AddEdge(-1, 0); err == nil {
		t.Error("negative source accepted")
	}
	if err := b.AddEdge(0, 3); err == nil {
		t.Error("out-of-range target accepted")
	}
}

func TestGraphStructure(t *testing.T) {
	b := mustBuilder(t, 4)
	addEdges(t, b, [][2]int{{0, 1}, {0, 2}, {1, 2}, {3, 0}, {0, 3}})
	g := b.Build()
	if g.NumNodes() != 4 || g.NumEdges() != 5 {
		t.Fatalf("nodes=%d edges=%d", g.NumNodes(), g.NumEdges())
	}
	if g.OutDegree(0) != 3 || g.OutDegree(2) != 0 {
		t.Fatalf("out degrees wrong: %d, %d", g.OutDegree(0), g.OutDegree(2))
	}
	neigh := append([]int(nil), g.OutNeighbors(0)...)
	sort.Ints(neigh)
	if len(neigh) != 3 || neigh[0] != 1 || neigh[1] != 2 || neigh[2] != 3 {
		t.Fatalf("neighbors of 0 = %v", neigh)
	}
	in := g.InDegrees()
	want := []int{1, 1, 2, 1}
	for i, w := range want {
		if in[i] != w {
			t.Fatalf("in-degree[%d] = %d, want %d", i, in[i], w)
		}
	}
}

func TestComputeUniformOnSymmetricGraph(t *testing.T) {
	// A directed cycle: perfectly symmetric, so all ranks equal 1/n.
	b := mustBuilder(t, 5)
	for i := 0; i < 5; i++ {
		addEdges(t, b, [][2]int{{i, (i + 1) % 5}})
	}
	res, err := Compute(b.Build(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("cycle did not converge")
	}
	for i, r := range res.Ranks {
		if math.Abs(r-0.2) > 1e-6 {
			t.Fatalf("rank[%d] = %v, want 0.2", i, r)
		}
	}
}

func TestComputeRanksSumToOne(t *testing.T) {
	rng := randutil.New(3)
	g, err := PreferentialAttachment(500, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compute(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, r := range res.Ranks {
		if r <= 0 {
			t.Fatal("non-positive rank")
		}
		sum += r
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("ranks sum to %v", sum)
	}
}

func TestComputeHub(t *testing.T) {
	// Star: everyone links to node 0; node 0 links back to 1.
	b := mustBuilder(t, 6)
	for i := 1; i < 6; i++ {
		addEdges(t, b, [][2]int{{i, 0}})
	}
	addEdges(t, b, [][2]int{{0, 1}})
	res, err := Compute(b.Build(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 6; i++ {
		if res.Ranks[0] <= res.Ranks[i] {
			t.Fatalf("hub rank %v not above node %d rank %v", res.Ranks[0], i, res.Ranks[i])
		}
	}
	// Node 1 receives the hub's endorsement: above 2..5.
	for i := 2; i < 6; i++ {
		if res.Ranks[1] <= res.Ranks[i] {
			t.Fatalf("endorsed node rank %v not above node %d rank %v", res.Ranks[1], i, res.Ranks[i])
		}
	}
}

func TestDanglingMassConserved(t *testing.T) {
	// Node 2 is dangling; ranks must still sum to 1.
	b := mustBuilder(t, 3)
	addEdges(t, b, [][2]int{{0, 1}, {1, 2}})
	res, err := Compute(b.Build(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	sum := res.Ranks[0] + res.Ranks[1] + res.Ranks[2]
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("dangling graph ranks sum to %v", sum)
	}
	if !res.Converged {
		t.Fatal("did not converge")
	}
}

func TestPersonalizedTeleport(t *testing.T) {
	// Personalization concentrated on node 3 should lift its rank above
	// the uniform-teleport value.
	b := mustBuilder(t, 4)
	addEdges(t, b, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	g := b.Build()
	uniform, err := Compute(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pers := []float64{0, 0, 0, 1}
	biased, err := Compute(g, Options{Personalization: pers})
	if err != nil {
		t.Fatal(err)
	}
	if biased.Ranks[3] <= uniform.Ranks[3] {
		t.Fatalf("personalized rank %v not above uniform %v", biased.Ranks[3], uniform.Ranks[3])
	}
}

func TestComputeValidation(t *testing.T) {
	b := mustBuilder(t, 2)
	addEdges(t, b, [][2]int{{0, 1}})
	g := b.Build()
	if _, err := Compute(g, Options{Damping: 1.0}); err == nil {
		t.Error("damping 1.0 accepted")
	}
	if _, err := Compute(g, Options{Damping: -0.5}); err == nil {
		t.Error("negative damping accepted")
	}
	if _, err := Compute(g, Options{Personalization: []float64{1}}); err == nil {
		t.Error("short personalization accepted")
	}
	if _, err := Compute(g, Options{Personalization: []float64{0, 0}}); err == nil {
		t.Error("all-zero personalization accepted")
	}
	if _, err := Compute(g, Options{Personalization: []float64{-1, 2}}); err == nil {
		t.Error("negative personalization accepted")
	}
}

func TestPreferentialAttachmentValidation(t *testing.T) {
	rng := randutil.New(1)
	if _, err := PreferentialAttachment(0, 3, rng); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := PreferentialAttachment(10, 0, rng); err == nil {
		t.Error("zero out-degree accepted")
	}
	if _, err := PreferentialAttachment(10, 3, nil); err == nil {
		t.Error("nil rng accepted")
	}
}

func TestPreferentialAttachmentShape(t *testing.T) {
	rng := randutil.New(42)
	const n = 3000
	g, err := PreferentialAttachment(n, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Edge count: node v contributes min(v, 4) edges.
	wantEdges := 0
	for v := 1; v < n; v++ {
		if v < 4 {
			wantEdges += v
		} else {
			wantEdges += 4
		}
	}
	if g.NumEdges() != wantEdges {
		t.Fatalf("edges = %d, want %d", g.NumEdges(), wantEdges)
	}
	// In-degree distribution should be heavy-tailed: the max in-degree
	// far exceeds the mean, and a log-log regression of the tail is
	// steeply negative.
	in := g.InDegrees()
	maxIn, sumIn := 0, 0
	for _, d := range in {
		sumIn += d
		if d > maxIn {
			maxIn = d
		}
	}
	mean := float64(sumIn) / n
	if float64(maxIn) < 10*mean {
		t.Fatalf("max in-degree %d vs mean %.2f: not heavy-tailed", maxIn, mean)
	}
	// Complementary CDF power-law check.
	counts := map[int]int{}
	for _, d := range in {
		counts[d]++
	}
	var xs, ys []float64
	ccdf := 0
	degrees := make([]int, 0, len(counts))
	for d := range counts {
		degrees = append(degrees, d)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(degrees)))
	for _, d := range degrees {
		ccdf += counts[d]
		if d >= 4 {
			xs = append(xs, float64(d))
			ys = append(ys, float64(ccdf))
		}
	}
	exp, _, r2, err := stats.FitPowerLaw(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if exp > -0.8 || exp < -3 {
		t.Fatalf("in-degree CCDF exponent %v, want clearly negative power law", exp)
	}
	if r2 < 0.85 {
		t.Fatalf("in-degree CCDF power-law fit R² = %v", r2)
	}
}

func TestQualitiesFromRanks(t *testing.T) {
	qs, err := QualitiesFromRanks([]float64{0.1, 0.4, 0.5}, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(qs[2]-0.4) > 1e-12 {
		t.Fatalf("top quality = %v, want 0.4", qs[2])
	}
	if math.Abs(qs[0]-0.08) > 1e-12 {
		t.Fatalf("scaled quality = %v, want 0.08", qs[0])
	}
	for _, q := range qs {
		if q <= 0 || q > 0.4 {
			t.Fatalf("quality %v out of range", q)
		}
	}
}

func TestQualitiesFromRanksValidation(t *testing.T) {
	if _, err := QualitiesFromRanks(nil, 0.4); err == nil {
		t.Error("empty ranks accepted")
	}
	if _, err := QualitiesFromRanks([]float64{1}, 0); err == nil {
		t.Error("zero maxQ accepted")
	}
	if _, err := QualitiesFromRanks([]float64{1}, 1.5); err == nil {
		t.Error("maxQ > 1 accepted")
	}
	if _, err := QualitiesFromRanks([]float64{0, 0}, 0.4); err == nil {
		t.Error("all-zero ranks accepted")
	}
	if _, err := QualitiesFromRanks([]float64{-1, 1}, 0.4); err == nil {
		t.Error("negative rank accepted")
	}
	// Zero entries among positive ones get floored, not rejected.
	qs, err := QualitiesFromRanks([]float64{0, 1}, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if qs[0] <= 0 {
		t.Fatal("zero rank not floored to positive quality")
	}
}

func BenchmarkPageRank10k(b *testing.B) {
	rng := randutil.New(1)
	g, err := PreferentialAttachment(10000, 5, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compute(g, Options{Tolerance: 1e-8}); err != nil {
			b.Fatal(err)
		}
	}
}

// InDegrees returns the in-degree of every node — the simplest popularity
// measure the paper mentions (§1).
func (g *Graph) InDegrees() []int {
	in := make([]int, g.n)
	for _, v := range g.outAdj {
		in[v]++
	}
	return in
}

// QualitiesFromRanks rescales PageRank values into page qualities in
// (0, maxQ], preserving their relative proportions — the paper's recipe
// of shaping quality like the PageRank distribution with the top page at
// 0.4 (§6.1).
func QualitiesFromRanks(ranks []float64, maxQ float64) ([]float64, error) {
	if len(ranks) == 0 {
		return nil, fmt.Errorf("pagerank: empty rank vector")
	}
	if maxQ <= 0 || maxQ > 1 {
		return nil, fmt.Errorf("pagerank: max quality %v outside (0,1]", maxQ)
	}
	top := 0.0
	for _, r := range ranks {
		if math.IsNaN(r) || r < 0 {
			return nil, fmt.Errorf("pagerank: invalid rank %v", r)
		}
		if r > top {
			top = r
		}
	}
	if top == 0 {
		return nil, fmt.Errorf("pagerank: all ranks zero")
	}
	qs := make([]float64, len(ranks))
	for i, r := range ranks {
		qs[i] = r / top * maxQ
		if qs[i] <= 0 {
			// Quality must be strictly positive for the popularity model;
			// floor isolated zero-rank nodes at a tiny epsilon.
			qs[i] = maxQ * 1e-9
		}
	}
	return qs, nil
}

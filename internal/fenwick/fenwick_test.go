package fenwick

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/randutil"
)

func TestEmptyTree(t *testing.T) {
	tr := New(0)
	if tr.Len() != 0 {
		t.Fatal("empty tree has nonzero length")
	}
	if tr.Total() != 0 {
		t.Fatal("empty tree has nonzero total")
	}
	if _, ok := tr.Sample(randutil.New(1)); ok {
		t.Fatal("sampling empty tree succeeded")
	}
	if New(-3).Len() != 0 {
		t.Fatal("negative size not clamped")
	}
}

func TestSetAndWeight(t *testing.T) {
	tr := New(10)
	tr.Set(3, 5)
	tr.Set(7, 2.5)
	if got := tr.Weight(3); got != 5 {
		t.Errorf("Weight(3) = %v", got)
	}
	if got := tr.Weight(7); got != 2.5 {
		t.Errorf("Weight(7) = %v", got)
	}
	if got := tr.Total(); math.Abs(got-7.5) > 1e-12 {
		t.Errorf("Total = %v", got)
	}
	tr.Set(3, 1) // overwrite
	if got := tr.Total(); math.Abs(got-3.5) > 1e-12 {
		t.Errorf("Total after overwrite = %v", got)
	}
}

func TestAdd(t *testing.T) {
	tr := New(5)
	tr.Add(0, 1)
	tr.Add(0, 2)
	tr.Add(4, 3)
	tr.Add(4, -1)
	if got := tr.Weight(0); got != 3 {
		t.Errorf("Weight(0) = %v", got)
	}
	if got := tr.Weight(4); got != 2 {
		t.Errorf("Weight(4) = %v", got)
	}
	if got := tr.Total(); math.Abs(got-5) > 1e-12 {
		t.Errorf("Total = %v", got)
	}
}

func TestPrefix(t *testing.T) {
	weights := []float64{1, 0, 2, 3, 0, 5}
	tr := FromWeights(weights)
	want := 0.0
	if got := tr.Prefix(-1); got != 0 {
		t.Errorf("Prefix(-1) = %v", got)
	}
	for i, w := range weights {
		want += w
		if got := tr.Prefix(i); math.Abs(got-want) > 1e-12 {
			t.Errorf("Prefix(%d) = %v, want %v", i, got, want)
		}
	}
	if got := tr.Prefix(100); math.Abs(got-want) > 1e-12 {
		t.Errorf("Prefix beyond end = %v, want total %v", got, want)
	}
}

func TestFromWeightsMatchesSets(t *testing.T) {
	f := func(ws []float64) bool {
		if len(ws) > 200 {
			ws = ws[:200]
		}
		for i := range ws {
			ws[i] = math.Abs(math.Mod(ws[i], 100))
			if math.IsNaN(ws[i]) || math.IsInf(ws[i], 0) {
				ws[i] = 1
			}
		}
		a := FromWeights(ws)
		b := New(len(ws))
		for i, w := range ws {
			b.Set(i, w)
		}
		for i := range ws {
			if math.Abs(a.Prefix(i)-b.Prefix(i)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	tr := New(3)
	for _, idx := range []int{-1, 3, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Set(%d) did not panic", idx)
				}
			}()
			tr.Set(idx, 1)
		}()
	}
}

func TestSampleProportional(t *testing.T) {
	tr := FromWeights([]float64{1, 0, 3, 6})
	rng := randutil.New(99)
	const trials = 100000
	counts := make([]int, 4)
	for i := 0; i < trials; i++ {
		idx, ok := tr.Sample(rng)
		if !ok {
			t.Fatal("sample failed")
		}
		counts[idx]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight slot sampled %d times", counts[1])
	}
	wantFracs := []float64{0.1, 0, 0.3, 0.6}
	for i, w := range wantFracs {
		got := float64(counts[i]) / trials
		if math.Abs(got-w) > 0.01 {
			t.Errorf("slot %d frequency %v, want ~%v", i, got, w)
		}
	}
}

func TestSampleAfterUpdates(t *testing.T) {
	tr := New(4)
	tr.Set(0, 10)
	tr.Set(1, 10)
	tr.Set(0, 0) // remove slot 0
	rng := randutil.New(5)
	for i := 0; i < 1000; i++ {
		idx, ok := tr.Sample(rng)
		if !ok {
			t.Fatal("sample failed")
		}
		if idx != 1 {
			t.Fatalf("sampled slot %d, want only slot 1", idx)
		}
	}
}

func TestSampleZeroTotal(t *testing.T) {
	tr := New(10)
	if _, ok := tr.Sample(randutil.New(1)); ok {
		t.Fatal("sampled from all-zero tree")
	}
}

func TestSampleSingleSlot(t *testing.T) {
	tr := New(1)
	tr.Set(0, 0.001)
	rng := randutil.New(2)
	for i := 0; i < 100; i++ {
		idx, ok := tr.Sample(rng)
		if !ok || idx != 0 {
			t.Fatalf("Sample = (%d, %v)", idx, ok)
		}
	}
}

func TestSampleNonPowerOfTwoSize(t *testing.T) {
	// Sizes straddling powers of two exercise the descent bit logic.
	for _, n := range []int{1, 2, 3, 7, 8, 9, 1000} {
		tr := New(n)
		for i := 0; i < n; i++ {
			tr.Set(i, 1)
		}
		rng := randutil.New(uint64(n))
		seen := make([]bool, n)
		for i := 0; i < n*50; i++ {
			idx, ok := tr.Sample(rng)
			if !ok || idx < 0 || idx >= n {
				t.Fatalf("n=%d: Sample = (%d, %v)", n, idx, ok)
			}
			seen[idx] = true
		}
		for i, s := range seen {
			if !s && n <= 100 {
				t.Errorf("n=%d: slot %d never sampled", n, i)
			}
		}
	}
}

func BenchmarkSample(b *testing.B) {
	tr := New(100000)
	rng := randutil.New(1)
	for i := 0; i < tr.Len(); i++ {
		tr.Set(i, rng.Float64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Sample(rng)
	}
}

func BenchmarkAdd(b *testing.B) {
	tr := New(100000)
	rng := randutil.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Add(rng.Intn(100000), 0.5)
	}
}

// FromWeights builds a tree initialized with the given weights in O(n).
func FromWeights(weights []float64) *Tree {
	t := New(len(weights))
	copy(t.raw, weights)
	for i, w := range weights {
		t.tree[i+1] += w
		if parent := i + 1 + ((i + 1) & -(i + 1)); parent <= t.n {
			t.tree[parent] += t.tree[i+1]
		}
	}
	return t
}

// Len returns the number of slots.
func (t *Tree) Len() int { return t.n }

// Weight returns the current weight at index i.
func (t *Tree) Weight(i int) float64 {
	t.check(i)
	return t.raw[i]
}

// Add increases the weight at index i by delta (which may be negative).
func (t *Tree) Add(i int, delta float64) {
	t.check(i)
	t.add(i, delta)
	t.raw[i] += delta
}

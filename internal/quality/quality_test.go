package quality

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/randutil"
)

func TestNewPowerLawValidation(t *testing.T) {
	cases := []struct{ min, max, alpha float64 }{
		{0, 0.4, 2.1},    // min must be > 0
		{-0.1, 0.4, 2.1}, // negative min
		{0.4, 0.4, 2.1},  // min == max
		{0.5, 0.4, 2.1},  // min > max
		{0.01, 1.5, 2.1}, // max > 1
		{0.01, 0.4, 1.0}, // alpha <= 1
		{0.01, 0.4, 0.5},
	}
	for _, c := range cases {
		if _, err := NewPowerLaw(c.min, c.max, c.alpha); err == nil {
			t.Errorf("NewPowerLaw(%v,%v,%v) accepted invalid config", c.min, c.max, c.alpha)
		}
	}
	if _, err := NewPowerLaw(0.001, 0.4, 2.1); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestDefaultShape(t *testing.T) {
	d := Default()
	if d.Max() != DefaultMax {
		t.Fatalf("default max = %v", d.Max())
	}
	// Quantile endpoints.
	if got := d.Quantile(0); math.Abs(got-d.MinQ) > 1e-9 {
		t.Errorf("Quantile(0) = %v, want min %v", got, d.MinQ)
	}
	if got := d.Quantile(1); math.Abs(got-d.MaxQ) > 1e-6 {
		t.Errorf("Quantile(1) = %v, want max %v", got, d.MaxQ)
	}
}

func TestQuantileMonotone(t *testing.T) {
	d := Default()
	prev := -1.0
	for u := 0.0; u < 1; u += 0.001 {
		q := d.Quantile(u)
		if q < prev {
			t.Fatalf("quantile not monotone at u=%v: %v < %v", u, q, prev)
		}
		if q < d.MinQ-1e-12 || q > d.MaxQ+1e-12 {
			t.Fatalf("quantile out of bounds at u=%v: %v", u, q)
		}
		prev = q
	}
}

func TestQuantileClamps(t *testing.T) {
	d := Default()
	if got := d.Quantile(-5); math.Abs(got-d.MinQ) > 1e-9 {
		t.Errorf("Quantile(-5) = %v", got)
	}
	if got := d.Quantile(2); math.Abs(got-d.MaxQ) > 1e-6 {
		t.Errorf("Quantile(2) = %v", got)
	}
}

func TestPowerLawMassNearBottom(t *testing.T) {
	// Most Web pages have low quality: the median should sit far below
	// the midpoint of the support.
	d := Default()
	median := d.Quantile(0.5)
	if median > 0.01 {
		t.Fatalf("median quality %v too high for a PageRank-like power law", median)
	}
}

func TestPowerLawTailExponent(t *testing.T) {
	// P(Q > q) should behave like q^(1-alpha): verify via the quantile
	// function at two tail points.
	d := Default()
	q90 := d.Quantile(0.90)
	q99 := d.Quantile(0.99)
	// survival(q90)/survival(q99) = 0.1/0.01 = 10 = (q99/q90)^(alpha-1)
	// => alpha-1 = ln(10)/ln(q99/q90) up to the max-truncation correction,
	// which is tiny at these quantiles for max=0.4.
	est := math.Log(10) / math.Log(q99/q90)
	if math.Abs(est-(DefaultAlpha-1)) > 0.15 {
		t.Fatalf("estimated tail exponent %v, want ~%v", est, DefaultAlpha-1)
	}
}

func TestUniform(t *testing.T) {
	d := Uniform{MinQ: 0.2, MaxQ: 0.8}
	if got := d.Quantile(0.5); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Quantile(0.5) = %v", got)
	}
	if d.Max() != 0.8 {
		t.Errorf("Max = %v", d.Max())
	}
	if got := d.Quantile(-1); got != 0.2 {
		t.Errorf("clamp low = %v", got)
	}
	if got := d.Quantile(2); got != 0.8 {
		t.Errorf("clamp high = %v", got)
	}
}

func TestPoint(t *testing.T) {
	d := Point{Q: 0.4}
	if d.Quantile(0.1) != 0.4 || d.Max() != 0.4 {
		t.Fatal("point distribution not constant")
	}
}

func TestDeterministicProperties(t *testing.T) {
	d := Default()
	qs := Deterministic(d, 1000)
	if len(qs) != 1000 {
		t.Fatalf("len = %d", len(qs))
	}
	if !sort.Float64sAreSorted(qs) {
		t.Fatal("not sorted")
	}
	// Reproducible.
	qs2 := Deterministic(d, 1000)
	for i := range qs {
		if qs[i] != qs2[i] {
			t.Fatal("Deterministic not reproducible")
		}
	}
}

func TestDeterministicWithTop(t *testing.T) {
	d := Default()
	qs := DeterministicWithTop(d, 100)
	if qs[99] != d.Max() {
		t.Fatalf("top quality = %v, want %v", qs[99], d.Max())
	}
	if len(DeterministicWithTop(d, 0)) != 0 {
		t.Fatal("n=0 should give empty slice")
	}
}

func TestBucketsPreserveCountAndMass(t *testing.T) {
	d := Default()
	qs := DeterministicWithTop(d, 5000)
	bs := Buckets(qs, 50)
	total := 0
	mass := 0.0
	for _, b := range bs {
		total += b.Count
		mass += b.Q * float64(b.Count)
		if b.Count <= 0 {
			t.Errorf("bucket with non-positive count: %+v", b)
		}
	}
	if total != 5000 {
		t.Fatalf("bucket counts sum to %d", total)
	}
	rawMass := 0.0
	for _, q := range qs {
		rawMass += q
	}
	if math.Abs(mass-rawMass)/rawMass > 1e-9 {
		t.Fatalf("bucketed mass %v vs raw %v", mass, rawMass)
	}
}

func TestBucketsKeepTopQuality(t *testing.T) {
	d := Default()
	qs := DeterministicWithTop(d, 5000)
	bs := Buckets(qs, 20)
	top := bs[len(bs)-1]
	if top.Q != d.Max() {
		t.Fatalf("top bucket quality %v, want exactly %v", top.Q, d.Max())
	}
	if top.Count != 1 {
		t.Fatalf("top bucket count %d, want 1", top.Count)
	}
}

func TestBucketsEdgeCases(t *testing.T) {
	if Buckets(nil, 10) != nil {
		t.Error("nil input should give nil")
	}
	if Buckets([]float64{0.5}, 0) != nil {
		t.Error("zero buckets should give nil")
	}
	bs := Buckets([]float64{0.3}, 10)
	if len(bs) != 1 || bs[0].Q != 0.3 || bs[0].Count != 1 {
		t.Errorf("single item buckets = %+v", bs)
	}
	// More buckets than items.
	bs = Buckets([]float64{0.1, 0.2, 0.3}, 100)
	count := 0
	for _, b := range bs {
		count += b.Count
	}
	if count != 3 {
		t.Errorf("counts sum to %d, want 3", count)
	}
}

func TestBucketsQuick(t *testing.T) {
	f := func(seed uint64, nRaw uint16, kRaw uint8) bool {
		n := int(nRaw)%500 + 1
		k := int(kRaw)%60 + 1
		rng := randutil.New(seed)
		qs := make([]float64, n)
		for i := range qs {
			qs[i] = 0.001 + 0.999*rng.Float64()
		}
		bs := Buckets(qs, k)
		total := 0
		prev := -1.0
		for _, b := range bs {
			total += b.Count
			if b.Q < prev-1e-9 {
				return false // buckets must be in ascending quality order
			}
			prev = b.Q
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

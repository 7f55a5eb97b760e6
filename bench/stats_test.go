package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	v := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, tc := range []struct {
		p    float64
		want int64
	}{{0.5, 50}, {0.9, 90}, {0.99, 100}, {1, 100}, {0.01, 10}, {0.11, 20}} {
		if got := percentile(v, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %d, want %d", tc.p, got, tc.want)
		}
	}
	if got := percentile([]int64(nil), 0.5); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
}

// The reported tail is the highest percentile that still has at least
// ten samples beyond it.
func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		label string
		ok    bool
	}{
		{50, "", false},        // p90 leaves 5 beyond
		{99, "", false},        // p90 leaves 9 beyond
		{100, "p90", true},     // p90 leaves exactly 10
		{999, "p90", true},     // p99 would leave 9
		{1000, "p99", true},    // p99 leaves exactly 10
		{9999, "p99", true},    // p99.9 would leave 9
		{10000, "p99.9", true}, // p99.9 leaves exactly 10
		{1200000, "p99.999", true},
	} {
		p, label, ok := tailPercentile(tc.n)
		if ok != tc.ok || label != tc.label {
			t.Errorf("tailPercentile(%d) = %v %q %v, want %q %v", tc.n, p, label, ok, tc.label, tc.ok)
		}
		if ok {
			if beyond := tc.n - int(math.Ceil(p*float64(tc.n))); beyond < 10 {
				t.Errorf("tailPercentile(%d) = %s with only %d samples beyond", tc.n, label, beyond)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
}

// Clients run side by side, so their rates add; latencies pool.
func TestSummarizePoolsClients(t *testing.T) {
	a := &recorder{lat: []int64{1000, 2000, 3000}, units: 300}
	b := &recorder{lat: []int64{4000, 5000}, units: 100}
	s := summarize([]*recorder{a, b}, []time.Duration{time.Second, 500 * time.Millisecond})
	if s.samples != 5 || s.p50us != 3 || s.perSec != 500 {
		t.Errorf("summarize = %+v, want 5 samples, p50 3us, 500/s", s)
	}
	if s.tailName != "max" || s.tailus != 5 {
		t.Errorf("tail = %s %v, want max 5", s.tailName, s.tailus)
	}
}

// The machine factor is the control's p50 over the nominal round trip;
// latencies are divided by it, rates multiplied, everything else left
// alone, and the raw values kept.
func TestNormalizeRestatesTimingsAtTheNominalState(t *testing.T) {
	slow := int64(2 * nullNominalUS * 1e3) // the control ran at half speed
	r := &run{
		control: []*recorder{{lat: []int64{slow, slow, slow}}, {lat: []int64{slow}}},
		metrics: map[string]metric{
			"rank_p50_us": {80, "us"}, "rank_per_s": {1000, "1/s"}, "setup_s": {1.5, "s"}, "mem_after_setup_mb": {30, "MB"},
		},
	}
	r.normalize()
	want := map[string]float64{"rank_p50_us": 40, "rank_per_s": 2000, "setup_s": 1.5, "mem_after_setup_mb": 30}
	for name, v := range want {
		if got := r.metrics[name].Value; got != v {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	if r.raw["rank_p50_us"].Value != 80 || r.raw["rank_per_s"].Value != 1000 || r.raw["null_p50_us"].Value != 2*nullNominalUS {
		t.Errorf("raw values not kept: %v", r.raw)
	}
	if _, ok := r.raw["setup_s"]; ok {
		t.Error("setup_s is not corrected and has no raw twin")
	}
	// No control sample (a smoke window too short to reach a control
	// turn): nothing is corrected.
	if f, _, n := machineFactor(nil); f != 1 || n != 0 {
		t.Errorf("machineFactor(nil) = %v, %d", f, n)
	}
}

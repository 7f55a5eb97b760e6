package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of an
// ascending-sorted sample; 0 for an empty one.
func percentile[T int64 | float64](sorted []T, p float64) T {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// tailPercentile picks the highest of p90, p99, p99.9, ... that still has
// at least ten samples beyond it in a sample of n, so the reported tail
// is a measured value rather than one or two outliers. ok is false when
// even p90 has fewer than ten samples beyond it.
func tailPercentile(n int) (p float64, label string, ok bool) {
	cands := []struct {
		p     float64
		label string
	}{{0.9, "p90"}, {0.99, "p99"}, {0.999, "p99.9"}, {0.9999, "p99.99"}, {0.99999, "p99.999"}}
	for _, c := range cands {
		beyond := n - int(math.Ceil(c.p*float64(n)))
		if beyond < 10 {
			break
		}
		p, label, ok = c.p, c.label, true
	}
	return p, label, ok
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// recorder collects one client's samples of one metric family (rank,
// batch or feedback): the latency of every operation that began inside
// the window and the work units they completed.
type recorder struct {
	lat   []int64 // nanoseconds
	units int64   // requests, sub-requests or events
}

func (r *recorder) add(lat time.Duration, units int) {
	r.lat = append(r.lat, int64(lat))
	r.units += int64(units)
}

// summary is what a window's recorders of one family boil down to.
type summary struct {
	samples  int
	p50us    float64
	p99us    float64
	tailus   float64 // highest percentile with >= 10 samples beyond it
	tailName string
	perSec   float64 // work units per second of the kind's own turns, all clients together
}

// summarize pools the clients' recorders. active[i] is the wall time
// client i spent in the kind's turns, requests, checks and all (a
// closed-loop client's rate includes its own think time); the rate is
// each client's units over its own active time, summed, because clients
// run side by side. Without active times there is no rate.
func summarize(recs []*recorder, active []time.Duration) summary {
	var all []int64
	var s summary
	for i, r := range recs {
		all = append(all, r.lat...)
		if i < len(active) && active[i] > 0 {
			s.perSec += float64(r.units) / active[i].Seconds()
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	s.samples = len(all)
	s.p50us = float64(percentile(all, 0.5)) / 1e3
	s.p99us = float64(percentile(all, 0.99)) / 1e3
	if p, label, ok := tailPercentile(len(all)); ok {
		s.tailus, s.tailName = float64(percentile(all, p))/1e3, label
	} else {
		s.tailus, s.tailName = float64(percentile(all, 1))/1e3, "max"
	}
	return s
}

func (s summary) String() string {
	return fmt.Sprintf("n=%d p50=%.2fus p99=%.2fus tail(%s)=%.2fus rate=%.0f/s", s.samples, s.p50us, s.p99us, s.tailName, s.tailus, s.perSec)
}

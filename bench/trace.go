package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Spans are recorded from the benchmark's own files, around its calls
// into each layer; the program under test is not instrumented. They stay
// in memory until the run ends and are then written out as one JSON
// document.

// span is one timed interval. Parent is the index of the span that
// caused it (-1 for a root); spans of one request share Req.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    uint64 `json:"req"`
}

// tracer collects spans. The zero-value-nil tracer is "tracing off":
// every method is a no-op on nil, so the end-to-end run pays one nil
// check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent int, req uint64, at time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: int64(at.Sub(t.epoch)), End: -1, Parent: parent, Req: req})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int, at time.Time) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].End = int64(at.Sub(t.epoch))
	t.mu.Unlock()
}

// selfTimes returns, per span name, every closed span's self time: its
// duration minus the part of that interval its child spans cover
// (overlapping children are not double-counted).
func selfTimes(spans []span) map[string][]int64 {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string][]int64{}
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.Name] = append(out[s.Name], s.End-s.Start-covered)
	}
	return out
}

// medianSelfUS is the median self time of the named spans, in
// microseconds.
func medianSelfUS(self map[string][]int64, name string) float64 {
	v := append([]int64(nil), self[name]...)
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	return float64(percentile(v, 0.5)) / 1e3
}

// write stores the spans as dir/trace-<workload>.json.
func (t *tracer) write(dir, workload string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}

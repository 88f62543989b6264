package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Parent is the index of the enclosing span
// in the tracer, or -1 for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer keeps spans, and counts taken at the same boundaries, in memory
// until the run ends. A nil tracer records nothing, so traced and
// untraced runs share one implementation.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), counts: map[string]float64{}} }

// add accumulates a count.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// count reads an accumulated count.
func (t *tracer) count(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// begin opens a span and returns its id for end and for child spans.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// snapshot copies the closed spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerTime is the time of every span with one name.
type layerTime struct {
	Name  string
	Count int
	Total float64 // seconds
	Self  float64 // seconds not covered by child spans
}

// selfTimes sums, per span name, each span's duration and its self time:
// the duration minus the part of its interval that its children cover.
// Children running concurrently are merged, so overlap is not subtracted
// twice.
func selfTimes(spans []span) map[string]*layerTime {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string]*layerTime{}
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		covered := coverage(spans, children[i], s.Start, s.End)
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			out[s.Name] = lt
		}
		lt.Count++
		lt.Total += float64(s.End-s.Start) / 1e9
		lt.Self += float64(s.End-s.Start-covered) / 1e9
	}
	return out
}

// coverage is the length of the union of the child intervals, clipped to
// [lo, hi].
func coverage(spans []span, kids []int, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, lo), min(spans[k].End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.SliceStable(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		total += v.b - max(v.a, end)
		end = v.b
	}
	return total
}

// printSelfTimes writes the per-name self-time table, largest first.
func printSelfTimes(w io.Writer, spans []span) {
	times := selfTimes(spans)
	rows := make([]*layerTime, 0, len(times))
	for _, lt := range times {
		rows = append(rows, lt)
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].Self != rows[j].Self {
			return rows[i].Self > rows[j].Self
		}
		return rows[i].Name < rows[j].Name
	})
	fmt.Fprintf(w, "self time by span (%d spans)\n", len(spans))
	for _, r := range rows {
		fmt.Fprintf(w, "  %-28s n=%-6d total %9.4f s  self %9.4f s\n", r.Name, r.Count, r.Total, r.Self)
	}
}

// writeSpans stores the spans as a JSON array.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// spanCost measures what recording one span costs, so the traced run can
// state how much of its time the tracer itself took.
func spanCost() time.Duration {
	const n = 20000
	t := newTracer()
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("calibrate", -1))
	}
	return time.Since(start) / n
}

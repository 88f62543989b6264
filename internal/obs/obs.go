// Package obs is the campaign's observability side channel: a metrics
// registry (counters, gauges, histograms), wall-clock phase timers, a
// periodic progress reporter, and a machine-readable run manifest.
//
// The package exists because a multi-week measurement campaign is only
// trustworthy if the testbed is continuously monitored — and because the
// simulation it monitors is specified to be a pure function of
// (Config, seed). Those two needs collide: monitoring wants wall-clock
// time, the simulation must never see it. The contract that reconciles
// them, enforced by the lintwheels `nondet` rule's package exemption and
// by the obs-on-vs-off byte-identity regression tests, is:
//
//   - obs is write-only from the simulation's point of view. Instrumented
//     code pushes values in; nothing in this package is ever read back
//     into a simulation decision.
//   - all wall-clock reads (time.Now / time.Since / tickers) live inside
//     this package. Instrumented packages call StartPhase or StartProgress
//     and stay clean under the nondet rule without per-site allows.
//   - a nil *Recorder is a valid, zero-cost no-op: every method checks its
//     receiver, so the instrumentation can stay wired permanently and the
//     obs-off path does no work and allocates nothing.
//
// Counters and gauges are updated with atomics, so concurrent operator
// lanes can instrument themselves without coordination.
package obs

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Recorder is one run's metric registry plus its wall-clock bookkeeping.
// The zero value is not usable; construct with New. A nil Recorder is a
// no-op on every method.
type Recorder struct {
	start     time.Time
	startWall time.Time // identical to start; kept for manifest clarity

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	phases   map[string]time.Duration
	labels   map[string]string

	progress *progressLoop
}

// New starts a recorder; the creation instant anchors Elapsed and the
// manifest's start timestamp.
func New() *Recorder {
	now := time.Now()
	return &Recorder{
		start:     now,
		startWall: now.UTC(),
		counters:  map[string]*Counter{},
		gauges:    map[string]*Gauge{},
		hists:     map[string]*Histogram{},
		phases:    map[string]time.Duration{},
		labels:    map[string]string{},
	}
}

// Elapsed reports the wall clock spent since New. The only sanctioned way
// for a command to print "finished in Xs" without its own time.Now.
func (r *Recorder) Elapsed() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.start)
}

// SetLabel attaches a string fact (seed, config hash, dataset path) to
// the manifest.
func (r *Recorder) SetLabel(key, value string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.labels[key] = value
	r.mu.Unlock()
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a valid no-op counter) on a nil recorder.
func (r *Recorder) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Recorder) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// upper bucket bounds on first use (later bounds are ignored).
func (r *Recorder) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// StartPhase opens a named wall-clock span and returns the closure that
// ends it. Re-entered phases accumulate. Safe from concurrent goroutines
// (each lane times itself). Ending a phase also sets the gauge
// mem/<name>/heap_mb to the heap in use at that moment, so a manifest
// says where a run's memory went, phase by phase, without a GC trace.
func (r *Recorder) StartPhase(name string) func() {
	if r == nil {
		return func() {}
	}
	begin := time.Now()
	return func() {
		d := time.Since(begin)
		r.mu.Lock()
		r.phases[name] += d
		r.mu.Unlock()
		r.Gauge("mem/" + name + "/heap_mb").Set(heapInUseMB())
	}
}

// heapObjects is the runtime/metrics name of the bytes held by heap
// objects, live or not yet swept: MemStats.HeapAlloc, read without
// ReadMemStats's stop-the-world.
const heapObjects = "/memory/classes/heap/objects:bytes"

// heapInUseMB reads the heap in use, in MiB.
func heapInUseMB() float64 {
	s := [1]metrics.Sample{{Name: heapObjects}}
	metrics.Read(s[:])
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// Counter is a monotonically increasing int64, safe for concurrent use.
// A nil Counter drops everything.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value reads the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-write-wins float64, safe for concurrent use. A nil
// Gauge drops everything.
type Gauge struct{ bits atomic.Uint64 }

// Set records the gauge's current value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value reads the last value set (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed upper-bound buckets plus an
// overflow bucket, and tracks count/sum/min/max. Guarded by a mutex; the
// hot simulation paths use counters, histograms sit on merge-time paths.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds
	counts []int64   // len(bounds)+1; last is overflow
	count  int64
	sum    float64
	min    float64
	max    float64
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]int64, len(bs)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// HistogramSnapshot is a histogram's state as serialized in the manifest.
type HistogramSnapshot struct {
	// Bounds are the ascending bucket upper bounds; Counts has one extra
	// trailing entry for observations above the last bound.
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
}

func (h *Histogram) snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]int64(nil), h.counts...),
		Count:  h.count,
		Sum:    h.sum,
		Min:    h.min,
		Max:    h.max,
	}
}

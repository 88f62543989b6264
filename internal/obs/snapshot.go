package obs

import "time"

// Snapshot is the read-only view of the registry at one instant: every
// counter, gauge, histogram, label, and accumulated phase duration, in
// the exact shape the run manifest serializes them. It is the single
// snapshot primitive both consumers build on — the -metrics manifest
// wraps it with run-level facts (schema, Go version, wall clock), and
// live readers (the -progress reporter, the daemon progress endpoint)
// serve it directly. Reading a name that was never written yields the
// zero value without creating a registry entry, so snapshotting is
// side-effect free.
type Snapshot struct {
	Labels     map[string]string            `json:"labels,omitempty"`
	PhaseMS    map[string]float64           `json:"phase_wall_ms,omitempty"`
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current state. Callable at any point,
// from any goroutine, any number of times; a nil Recorder yields an
// empty (but non-nil-mapped) snapshot.
func (r *Recorder) Snapshot() Snapshot {
	s := Snapshot{
		Labels:     map[string]string{},
		PhaseMS:    map[string]float64{},
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, v := range r.labels {
		s.Labels[k] = v
	}
	for k, d := range r.phases {
		s.PhaseMS[k] = float64(d) / float64(time.Millisecond)
	}
	for k, c := range r.counters {
		s.Counters[k] = c.Value()
	}
	for k, g := range r.gauges {
		s.Gauges[k] = g.Value()
	}
	for k, h := range r.hists {
		s.Histograms[k] = h.snapshot()
	}
	return s
}

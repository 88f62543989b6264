package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// TestSnapshotMatchesManifest pins the satellite contract: the metric
// sections of a written manifest are exactly what Snapshot returns — the
// daemon's progress endpoint and the -metrics file can never disagree
// about the registry's contents.
func TestSnapshotMatchesManifest(t *testing.T) {
	r := New()
	r.SetLabel("seed", "42")
	r.Counter("lane/v/ticks").Add(7)
	r.Counter("fleetsync/pushes").Add(2)
	r.Gauge("lane/v/odometer_km").Set(12.5)
	r.Histogram("skew_ms", []float64{1, 10, 100}).Observe(3)
	r.Histogram("skew_ms", nil).Observe(250)
	stop := r.StartPhase("run")
	stop()

	snap := r.Snapshot()
	var buf bytes.Buffer
	if err := r.WriteManifest(&buf); err != nil {
		t.Fatalf("WriteManifest: %v", err)
	}
	var man Manifest
	if err := json.Unmarshal(buf.Bytes(), &man); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(snap.Labels, man.Labels) {
		t.Errorf("labels: snapshot %v != manifest %v", snap.Labels, man.Labels)
	}
	if !reflect.DeepEqual(snap.Counters, man.Counters) {
		t.Errorf("counters: snapshot %v != manifest %v", snap.Counters, man.Counters)
	}
	if !reflect.DeepEqual(snap.Gauges, man.Gauges) {
		t.Errorf("gauges: snapshot %v != manifest %v", snap.Gauges, man.Gauges)
	}
	if !reflect.DeepEqual(snap.Histograms, man.Histograms) {
		t.Errorf("histograms: snapshot %v != manifest %v", snap.Histograms, man.Histograms)
	}
	// Phase durations accumulate between the two reads only if a phase is
	// still open; here all phases are closed, so the values must agree.
	if !reflect.DeepEqual(snap.PhaseMS, man.PhaseMS) {
		t.Errorf("phases: snapshot %v != manifest %v", snap.PhaseMS, man.PhaseMS)
	}
}

// TestSnapshotNilAndSideEffectFree: a nil recorder snapshots empty, and
// snapshotting never creates registry entries.
func TestSnapshotNilAndSideEffectFree(t *testing.T) {
	var nilRec *Recorder
	s := nilRec.Snapshot()
	if len(s.Counters) != 0 || s.Counters == nil {
		t.Errorf("nil recorder snapshot: want empty non-nil maps, got %#v", s)
	}

	r := New()
	r.Counter("only").Add(1)
	_ = r.Snapshot()
	if got := r.Snapshot().Counters; len(got) != 1 {
		t.Errorf("snapshot created entries: %v", got)
	}
}

package cellwheels

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"testing"

	"github.com/nuwins/cellwheels/internal/obs"
)

// TestObsDatasetByteIdentical is the observability subsystem's core
// contract: attaching a Recorder must not perturb the simulation by a
// single byte. The obs layer is write-only — if instrumentation ever
// leaked back into a simulation decision (or reordered one), this is the
// test that catches it.
func TestObsDatasetByteIdentical(t *testing.T) {
	cfg := Config{Seed: 33, LimitKm: 30, VideoSeconds: 15, GamingSeconds: 10, Workers: 3}

	jsonFor := func(rec *obs.Recorder) []byte {
		t.Helper()
		c := cfg
		c.Obs = rec
		s, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := s.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	off := jsonFor(nil)
	on := jsonFor(obs.New())
	if !bytes.Equal(off, on) {
		t.Error("dataset with observability on differs from observability off")
	}
}

// TestObsManifestCountsMatchDataset runs an instrumented campaign and
// checks the manifest's table/* counters against the exported dataset:
// the manifest must describe the run it shipped with, not an estimate.
func TestObsManifestCountsMatchDataset(t *testing.T) {
	rec := obs.New()
	s, err := Run(Config{Seed: 11, LimitKm: 30, VideoSeconds: 15, GamingSeconds: 10, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	man := rec.Manifest()

	sum := s.Summary()
	if got, want := man.Counters["table/tests"], int64(sum.Tests); got != want {
		t.Errorf("table/tests = %d, dataset has %d", got, want)
	}

	dir := t.TempDir()
	if err := s.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}
	tables := []struct {
		counter string
		file    string
	}{
		{"table/throughput", "throughput.csv"},
		{"table/rtt", "rtt.csv"},
		{"table/handovers", "handovers.csv"},
		{"table/appruns", "appruns.csv"},
	}
	for _, tab := range tables {
		f, err := os.Open(filepath.Join(dir, tab.file))
		if err != nil {
			t.Fatal(err)
		}
		rows, err := csv.NewReader(f).ReadAll()
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		// One header row; the rest are data.
		if got, want := man.Counters[tab.counter], int64(len(rows)-1); got != want {
			t.Errorf("%s = %d, %s has %d data rows", tab.counter, got, tab.file, want)
		}
	}

	// The run is stamped with its seed and config hash, and the config
	// hash must not depend on the Obs pointer itself.
	if man.Labels["seed"] != "11" {
		t.Errorf("seed label = %q", man.Labels["seed"])
	}
	plain := Config{Seed: 11, LimitKm: 30, VideoSeconds: 15, GamingSeconds: 10}
	if got, want := man.Labels["config_sha256"], plain.fingerprint(); got != want {
		t.Errorf("config_sha256 = %q, fingerprint of Obs-free config = %q", got, want)
	}

	// The drive pass's facts come from the block producer: every lane
	// replayed the whole trip, and the route length is the dataset's.
	perLane := man.Counters["ticks/per_lane"]
	if perLane == 0 {
		t.Error("ticks/per_lane not set")
	}
	for _, op := range []string{"A", "T", "V"} {
		if got := man.Counters["lane/"+op+"/ticks"]; got != perLane {
			t.Errorf("lane/%s/ticks = %d, ticks/per_lane = %d", op, got, perLane)
		}
	}
	if got, want := man.Gauges["route/total_km"], sum.RouteKm; got != want {
		t.Errorf("route/total_km = %v, dataset Meta.RouteKm = %v", got, want)
	}

	// Phases cover every lane plus merge and the run itself.
	for _, phase := range []string{"run", "merge", "lane/V", "lane/T", "lane/A"} {
		if _, ok := man.PhaseMS[phase]; !ok {
			t.Errorf("manifest missing phase %q (have %v)", phase, man.PhaseMS)
		}
	}
}

// TestFingerprintIgnoresSideChannels: the exported Fingerprint — the
// manifest's config_sha256 — must not change when the Obs side channel
// is attached, and must tell different seeds apart.
func TestFingerprintIgnoresSideChannels(t *testing.T) {
	cfg := Config{Seed: 4, LimitKm: 10}
	base := cfg.Fingerprint()
	cfg.Obs = obs.New()
	if got := cfg.Fingerprint(); got != base {
		t.Errorf("fingerprint changed with Obs attached: %s != %s", got, base)
	}
	if other := (Config{Seed: 5, LimitKm: 10}).Fingerprint(); other == base {
		t.Error("different seeds share a fingerprint")
	}
}

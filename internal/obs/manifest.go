package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/nuwins/cellwheels/internal/atomicio"
)

// ManifestSchema identifies the manifest layout; bump on breaking change.
const ManifestSchema = 1

// Manifest is the machine-readable run record written by -metrics: what
// was run (labels: seed, config hash), on what (Go version, GOMAXPROCS),
// how long each phase took, and what it produced (counters, gauges,
// histograms — including the per-table sample counts the dataset writers
// must agree with). encoding/json sorts map keys, so a manifest is
// deterministic up to the wall-clock fields (start_utc, wall_ms,
// phase_wall_ms) and the heap gauges its phases set (mem/<phase>/heap_mb).
type Manifest struct {
	Schema     int                          `json:"schema"`
	GoVersion  string                       `json:"go_version"`
	GOMAXPROCS int                          `json:"gomaxprocs"`
	StartUTC   time.Time                    `json:"start_utc"`
	WallMS     float64                      `json:"wall_ms"`
	Labels     map[string]string            `json:"labels,omitempty"`
	PhaseMS    map[string]float64           `json:"phase_wall_ms,omitempty"`
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Manifest snapshots the registry. Callable at any point; typically once,
// after the dataset is written. The metric sections are exactly
// Snapshot's — the manifest only adds the run-level wrapper facts
// (schema, Go version, GOMAXPROCS, wall clock).
func (r *Recorder) Manifest() Manifest {
	if r == nil {
		return Manifest{Schema: ManifestSchema}
	}
	wall := time.Since(r.start)
	snap := r.Snapshot()
	return Manifest{
		Schema:     ManifestSchema,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		StartUTC:   r.startWall,
		WallMS:     float64(wall) / float64(time.Millisecond),
		Labels:     snap.Labels,
		PhaseMS:    snap.PhaseMS,
		Counters:   snap.Counters,
		Gauges:     snap.Gauges,
		Histograms: snap.Histograms,
	}
}

// WriteManifest serializes the manifest as indented JSON.
func (r *Recorder) WriteManifest(w io.Writer) error {
	data, err := json.MarshalIndent(r.Manifest(), "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// WriteManifestFile writes the manifest to path through the shared
// atomic writer, creating path's parent directory first: a -metrics path
// in a fresh results tree must not fail a run that already finished.
func (r *Recorder) WriteManifestFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("obs: create manifest directory: %w", err)
	}
	return atomicio.WriteFile(path, 0o644, r.WriteManifest)
}

// ReadManifest parses a manifest written by WriteManifest.
func ReadManifest(rd io.Reader) (Manifest, error) {
	var m Manifest
	if err := json.NewDecoder(rd).Decode(&m); err != nil {
		return Manifest{}, fmt.Errorf("obs: manifest: %w", err)
	}
	return m, nil
}

// Fingerprint hashes any value's verbose Go representation to a stable
// hex digest — used to stamp the manifest with a config hash so two
// manifests can be compared for "same run?" without diffing configs.
// Values containing pointers or maps are the caller's responsibility to
// zero or avoid; the cellwheels.Config passed in practice is plain data.
func Fingerprint(v any) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%#v", v)))
	return hex.EncodeToString(sum[:])
}

package fleet

import (
	"encoding/json"
	"io"
	"path/filepath"

	"github.com/nuwins/cellwheels/internal/atomicio"
)

// ManifestSchema identifies the fleet manifest layout; bump on breaking
// change.
const ManifestSchema = 1

// Run statuses recorded in the manifest.
const (
	RunOK     = "ok"
	RunFailed = "failed"
)

// RunRecord is one run's row in the fleet manifest.
type RunRecord struct {
	Index     int    `json:"index"`
	Cell      string `json:"cell"`
	Replicate int    `json:"replicate"`
	Seed      int64  `json:"seed"`
	Status    string `json:"status"`
	// Error carries the run's failure (including contained panics);
	// empty for successful runs.
	Error string `json:"error,omitempty"`
	// Dataset is where the run's full dataset was archived, relative to
	// the fleet output directory; empty when datasets are discarded.
	Dataset string `json:"dataset,omitempty"`
}

// Manifest is the machine-readable fleet record: the full run matrix
// with per-run seeds and outcomes, in matrix order. It deliberately
// carries no wall-clock fields — wall time lives in the obs side
// channel's own manifest — so a fleet manifest is byte-identical for any
// worker count.
type Manifest struct {
	Schema     int         `json:"schema"`
	MasterSeed int64       `json:"master_seed"`
	Replicates int         `json:"replicates"`
	Cells      []string    `json:"cells"`
	Failed     int         `json:"failed"`
	Runs       []RunRecord `json:"runs"`
}

// WriteJSON serializes the manifest as indented JSON.
func (m Manifest) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// The files WriteOutputs writes into a fleet's output directory.
const (
	ReportFile   = "fleet-report.txt"
	ManifestFile = "fleet-manifest.json"
)

// WriteOutputs writes the fleet's report and manifest into dir as
// ReportFile and ManifestFile, each atomically, so a failed write never
// leaves a truncated file behind.
func (r *Result) WriteOutputs(dir string) error {
	if err := atomicio.WriteFileBytes(filepath.Join(dir, ReportFile), 0o644, []byte(r.Report())); err != nil {
		return err
	}
	return atomicio.WriteFile(filepath.Join(dir, ManifestFile), 0o644, r.Manifest.WriteJSON)
}

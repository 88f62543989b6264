package cellwheels

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"github.com/nuwins/cellwheels/internal/fleet"
	"github.com/nuwins/cellwheels/internal/obs"
	"github.com/nuwins/cellwheels/internal/radio"
)

// SweepAxis is one dimension of a fleet sweep: a Config field — named by
// its JSON key, e.g. "disable_edge" or "limit_km" — and the JSON values
// it takes. A fleet runs the cartesian product of its axes.
type SweepAxis struct {
	Field  string            `json:"field"`
	Values []json.RawMessage `json:"values"`
}

// FleetConfig parameterizes RunFleet: a base campaign Config, a sweep
// grid over its fields, and a replicate count per sweep cell. The JSON
// tags define the fleet scenario file format (see ParseFleetScenario).
type FleetConfig struct {
	// MasterSeed seeds the whole fleet. Every run's campaign seed is
	// forked from it as a pure function of (master seed, sweep cell,
	// replicate index) — independent of execution order and worker
	// count, so run identity is positional.
	MasterSeed int64 `json:"master_seed"`
	// Replicates is how many seeded runs execute per sweep cell;
	// values below 1 mean 1.
	Replicates int `json:"replicates"`
	// Base is the campaign configuration every run starts from. Its
	// Seed is ignored (per-run seeds are derived from MasterSeed) and
	// its Obs is overridden by the fleet's own recorder.
	Base Config `json:"base"`
	// Sweep is the grid of field overrides; empty sweeps run a single
	// base cell.
	Sweep []SweepAxis `json:"sweep,omitempty"`
	// Workers caps how many whole runs execute concurrently
	// (0 = GOMAXPROCS). Any value produces a byte-identical fleet
	// report and manifest.
	Workers int `json:"workers,omitempty"`
	// ArchiveDir, when non-empty, archives each successful run's full
	// dataset as <dir>/run-NNN.json (atomic writes). When empty, each
	// dataset is discarded as soon as its headline metrics are folded
	// into the fleet accumulators — the streaming-reduction contract
	// that lets a 100-run fleet hold ~zero datasets in memory.
	ArchiveDir string `json:"archive_dir,omitempty"`
	// Obs receives fleet-level phase timings and run counters plus the
	// merged per-run campaign metrics (every run shares this recorder,
	// so counters accumulate across the whole fleet). Side channel
	// only: it never changes the report, manifest, or datasets.
	Obs *obs.Recorder `json:"-"`
	// CellFilter, when non-nil, restricts the fleet to the sweep cells it
	// returns true for (index is the cell's position in sweep order, key
	// its canonical "f1=v1|f2=v2" identity). The kept runs retain their
	// full-matrix indexes and positional seeds, so disjoint workers
	// produce runs a fleetsync collector merges into exactly the
	// single-process result.
	CellFilter func(index int, key string) bool `json:"-"`
	// OnRun, when non-nil, streams each finished run's manifest record
	// and flat metrics, in completion order on a single goroutine — the
	// worker-side seam fleetsync pushes runs from. Its first error fails
	// the fleet after in-flight runs drain.
	OnRun func(rec fleet.RunRecord, m fleet.Metrics) error `json:"-"`
	// TestHookStart, when non-nil, runs at the start of every fleet run
	// on its worker goroutine — a test-only seam for injecting failures
	// (including panics, which the pool contains and records in the
	// manifest). Production callers leave it nil.
	TestHookStart func(index int, cell string, replicate int) `json:"-"`
}

// ParseFleetScenario decodes a fleet scenario file: a JSON object with
// the FleetConfig layout, e.g.
//
//	{
//	  "master_seed": 7,
//	  "replicates": 3,
//	  "base": {"limit_km": 25, "video_seconds": 20},
//	  "sweep": [{"field": "disable_edge", "values": [false, true]}]
//	}
//
// Decoding is strict: unknown keys are errors, so a typo fails the fleet
// before any campaign runs.
func ParseFleetScenario(r io.Reader) (FleetConfig, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var cfg FleetConfig
	if err := dec.Decode(&cfg); err != nil {
		return FleetConfig{}, fmt.Errorf("cellwheels: fleet scenario: %w", err)
	}
	return cfg, nil
}

// FleetResult is a completed fleet: cross-replicate statistics per sweep
// cell plus the manifest of every run.
type FleetResult struct {
	res *fleet.Result
}

// Report renders the fleet's headline metrics, one block per sweep cell,
// each metric as "median [p25–p75] (min–max)" over the cell's completed
// replicates. Byte-identical for any Workers value.
func (r *FleetResult) Report() string { return r.res.Report() }

// Runs reports the size of the executed run matrix.
func (r *FleetResult) Runs() int { return len(r.res.Manifest.Runs) }

// Failed reports how many runs failed (errored or panicked). Failed runs
// are recorded in the manifest; their replicate slots are excluded from
// the report's statistics.
func (r *FleetResult) Failed() int { return r.res.Manifest.Failed }

// WriteManifest serializes the fleet manifest — the full run matrix with
// per-run seeds, outcomes, errors, and archive paths — as indented JSON.
// The manifest carries no wall-clock fields, so it is byte-identical for
// any Workers value.
func (r *FleetResult) WriteManifest(w io.Writer) error {
	return r.res.Manifest.WriteJSON(w)
}

// WriteOutputs writes the fleet report and manifest into dir, as
// fleet-report.txt and fleet-manifest.json, each atomically.
func (r *FleetResult) WriteOutputs(dir string) error { return r.res.WriteOutputs(dir) }

// Validate rejects malformed scenarios — bad sweeps, unknown override
// fields, type-mismatched values, an unsupported base config, a fleet
// larger than MaxReplicates or MaxFleetRuns — without running anything:
// the same early checks RunFleet performs before any campaign starts.
// Services use it to refuse a bad job at submission.
func (cfg FleetConfig) Validate() error {
	_, _, err := cfg.validated()
	return err
}

// validated is Validate returning what RunFleet runs from: the base
// config with its Seed and Obs cleared, and the sweep's axes.
func (cfg FleetConfig) validated() (Config, []fleet.Axis, error) {
	base := cfg.Base
	base.Seed = 0
	base.Obs = nil
	if err := base.Validate(); err != nil {
		return Config{}, nil, err
	}
	if err := cfg.checkSize(); err != nil {
		return Config{}, nil, err
	}
	axes, _, err := fleetSweep(cfg.Sweep, &base)
	return base, axes, err
}

// Fleet size bounds. A scenario far below any request size limit can
// name billions of runs, and a fleet builds per-run state for its whole
// matrix before the first run starts.
const (
	// MaxReplicates bounds a fleet's replicates per sweep cell.
	MaxReplicates = 1000
	// MaxFleetRuns bounds a fleet's planned runs: its sweep cells times
	// its replicates.
	MaxFleetRuns = 10000
)

// checkSize rejects a fleet whose replicates or planned runs exceed
// their bounds. It counts the sweep's cells from its axes' lengths,
// before anything is expanded.
func (cfg FleetConfig) checkSize() error {
	if cfg.Replicates > MaxReplicates {
		return fmt.Errorf("cellwheels: fleet: replicates must be at most %d, got %d", MaxReplicates, cfg.Replicates)
	}
	runs := max(cfg.Replicates, 1)
	for _, a := range cfg.Sweep {
		// Past the bound the product is not needed, only the fact.
		if runs *= max(len(a.Values), 1); runs > MaxFleetRuns {
			return fmt.Errorf("cellwheels: fleet: the sweep and replicates plan more than %d runs", MaxFleetRuns)
		}
	}
	return nil
}

// RunFleet executes many campaigns as one deterministic job: the sweep
// grid times the replicate count is expanded into a run matrix, each run
// executes Run with its derived seed and overridden config, and finished
// runs are folded streamingly into per-cell accumulators. An error is
// returned only for malformed scenarios or archive-setup failures;
// individual run failures (including panics) are contained, recorded in
// the manifest, and do not stop sibling runs — check FleetResult.Failed.
func RunFleet(cfg FleetConfig) (*FleetResult, error) {
	// Validate the base config and every cell's overrides before any
	// campaign runs: a bad base or a typo'd field name should fail the
	// fleet fast, not produce a manifest full of identical failures.
	base, axes, err := cfg.validated()
	if err != nil {
		return nil, err
	}
	if cfg.ArchiveDir != "" {
		if err := os.MkdirAll(cfg.ArchiveDir, 0o755); err != nil {
			return nil, fmt.Errorf("cellwheels: fleet: %w", err)
		}
	}

	runner := func(spec fleet.RunSpec) (fleet.RunResult, error) {
		runCfg, err := applyFleetOverrides(base, spec.Cell.Overrides)
		if err != nil {
			return fleet.RunResult{}, err
		}
		runCfg.Seed = spec.Seed
		runCfg.Obs = cfg.Obs
		study, err := Run(runCfg)
		if err != nil {
			return fleet.RunResult{}, err
		}
		out := fleet.RunResult{Metrics: fleetMetrics(study.Summary())}
		if cfg.ArchiveDir != "" {
			name := fmt.Sprintf("run-%03d.json", spec.Index)
			if err := study.WriteJSONFile(filepath.Join(cfg.ArchiveDir, name)); err != nil {
				return fleet.RunResult{}, err
			}
			out.Dataset = name
		}
		// study goes out of scope here: the dataset is on disk (or
		// dropped) and only the flat metric map flows back to the fleet.
		return out, nil
	}

	var start func(fleet.RunSpec)
	if cfg.TestHookStart != nil {
		hook := cfg.TestHookStart
		start = func(s fleet.RunSpec) { hook(s.Index, s.Cell.Key, s.Replicate) }
	}
	var filter func(int, fleet.Cell) bool
	if cfg.CellFilter != nil {
		keep := cfg.CellFilter
		filter = func(i int, c fleet.Cell) bool { return keep(i, c.Key) }
	}

	res, err := fleet.Run(fleet.Config{
		MasterSeed:  cfg.MasterSeed,
		Replicates:  cfg.Replicates,
		Sweep:       axes,
		Workers:     cfg.Workers,
		Run:         runner,
		MetricOrder: fleetMetricOrder(),
		Obs:         cfg.Obs,
		CellFilter:  filter,
		OnRun:       cfg.OnRun,
		Start:       start,
	})
	if err != nil {
		return nil, fmt.Errorf("cellwheels: fleet: %w", err)
	}

	// Every run stamped the shared recorder with its own seed and config
	// hash, in completion order; overwrite them with the fleet-level
	// identity so the final obs manifest is deterministic in those
	// labels whatever order runs finished in.
	cfg.Obs.SetLabel("seed", strconv.FormatInt(cfg.MasterSeed, 10))
	// Worker counts never change a byte of the fleet's output, so they
	// stay out of its identity, as Config.Fingerprint leaves them out.
	fp := cfg
	fp.Obs = nil
	fp.Workers = 0
	fp.Base.Obs, fp.Base.Workers = nil, 0
	fp.TestHookStart = nil
	fp.CellFilter = nil
	fp.OnRun = nil
	cfg.Obs.SetLabel("config_sha256", obs.Fingerprint(fp))
	cfg.Obs.SetLabel("fleet_runs", strconv.Itoa(len(res.Manifest.Runs)))
	return &FleetResult{res: res}, nil
}

// FleetReducer builds the collector-side reduction for a scenario: a
// fleet.Reducer expecting the scenario's full run matrix with positional
// seeds and the campaign metric order, so runs executed by remote workers
// fold into a Result byte-identical to RunFleet's over the same scenario.
func FleetReducer(cfg FleetConfig) (*fleet.Reducer, error) {
	if err := cfg.checkSize(); err != nil {
		return nil, err
	}
	axes, _, err := fleetSweep(cfg.Sweep, nil)
	if err != nil {
		return nil, err
	}
	red, err := fleet.NewReducer(cfg.MasterSeed, cfg.Replicates, axes, nil, fleetMetricOrder())
	if err != nil {
		return nil, fmt.Errorf("cellwheels: fleet: %w", err)
	}
	return red, nil
}

// FleetCells lists a scenario's sweep cells — their canonical keys, in
// sweep order — without running anything. Worker cell subsets (cellwheels
// fleet -cells) are validated and reported against this list.
func FleetCells(cfg FleetConfig) ([]string, error) {
	if err := cfg.checkSize(); err != nil {
		return nil, err
	}
	_, cells, err := fleetSweep(cfg.Sweep, nil)
	if err != nil {
		return nil, err
	}
	keys := make([]string, len(cells))
	for i, c := range cells {
		keys[i] = c.Key
	}
	return keys, nil
}

// fleetSweep converts a scenario's sweep to fleet axes and expands them
// into cells, in sweep order. With a non-nil base it also applies every
// cell's overrides to base, so an unknown field or mistyped value is an
// error before anything runs.
func fleetSweep(sweep []SweepAxis, base *Config) ([]fleet.Axis, []fleet.Cell, error) {
	axes := make([]fleet.Axis, len(sweep))
	for i, a := range sweep {
		axes[i] = fleet.Axis{Field: a.Field, Values: a.Values}
	}
	cells, err := fleet.Expand(axes)
	if err != nil {
		return nil, nil, fmt.Errorf("cellwheels: fleet: %w", err)
	}
	if base != nil {
		for _, cell := range cells {
			if _, err := applyFleetOverrides(*base, cell.Overrides); err != nil {
				return nil, nil, fmt.Errorf("cellwheels: fleet: cell %s: %w", cell.Label(), err)
			}
		}
	}
	return axes, cells, nil
}

// applyFleetOverrides returns base with a sweep cell's field overrides
// applied, by round-tripping through the config's JSON form: marshal the
// base, patch the named keys, strict-unmarshal back. Unknown fields and
// type-mismatched values error rather than silently doing nothing.
func applyFleetOverrides(base Config, overrides []fleet.Override) (Config, error) {
	if len(overrides) == 0 {
		return base, nil
	}
	raw, err := json.Marshal(base)
	if err != nil {
		return Config{}, err
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		return Config{}, err
	}
	for _, o := range overrides {
		if _, ok := m[o.Field]; !ok {
			return Config{}, fmt.Errorf("unknown config field %q (sweep fields use Config's JSON keys, e.g. \"limit_km\")", o.Field)
		}
		m[o.Field] = o.Value
	}
	patched, err := json.Marshal(m)
	if err != nil {
		return Config{}, err
	}
	var out Config
	dec := json.NewDecoder(bytes.NewReader(patched))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&out); err != nil {
		return Config{}, fmt.Errorf("bad override value: %w", err)
	}
	out.Obs = base.Obs
	return out, nil
}

// fleetWideMetrics and carrierMetrics are the fleet's metrics in report
// order: the fleet-wide figures, then per carrier, as "<operator>/<name>",
// the paper's driving medians, handover rate, and app QoE figures.
var (
	fleetWideMetrics = []struct {
		name  string
		value func(Summary) float64
	}{
		{"route_km", func(s Summary) float64 { return s.RouteKm }},
		{"tests", func(s Summary) float64 { return float64(s.Tests) }},
		{"frac_below_5mbps", func(s Summary) float64 { return s.FracBelow5Mbps }},
	}
	carrierMetrics = []struct {
		name  string
		value func(CarrierSummary) float64
	}{
		{"share_5g", func(c CarrierSummary) float64 { return c.Share5G }},
		{"drive_dl_mbps", func(c CarrierSummary) float64 { return c.DrivingDLMedianMbps }},
		{"drive_ul_mbps", func(c CarrierSummary) float64 { return c.DrivingULMedianMbps }},
		{"drive_rtt_ms", func(c CarrierSummary) float64 { return c.DrivingRTTMedianMS }},
		{"static_dl_mbps", func(c CarrierSummary) float64 { return c.StaticDLMedianMbps }},
		{"ho_per_mile", func(c CarrierSummary) float64 { return c.HandoversPerMileMedian }},
		{"video_qoe", func(c CarrierSummary) float64 { return c.VideoQoEMedian }},
		{"gaming_mbps", func(c CarrierSummary) float64 { return c.GamingBitrateMedian }},
	}
)

// fleetMetrics flattens a study's headline numbers into the fleet's flat
// metric map.
func fleetMetrics(s Summary) fleet.Metrics {
	m := fleet.Metrics{}
	for _, f := range fleetWideMetrics {
		m[f.name] = f.value(s)
	}
	for _, c := range s.Carriers {
		for _, f := range carrierMetrics {
			m[c.Operator+"/"+f.name] = f.value(c)
		}
	}
	return m
}

// fleetMetricOrder is the canonical report order of fleetMetrics' keys:
// fleet-wide figures first, then each carrier's block in operator order.
func fleetMetricOrder() []string {
	var order []string
	for _, f := range fleetWideMetrics {
		order = append(order, f.name)
	}
	for _, op := range radio.Operators() {
		for _, f := range carrierMetrics {
			order = append(order, op.String()+"/"+f.name)
		}
	}
	return order
}

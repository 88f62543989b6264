package cellwheels

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/nuwins/cellwheels/internal/fleet"
	"github.com/nuwins/cellwheels/internal/obs"
)

// fleetTestBase is the shared small campaign the fleet tests run: short
// drive, no apps/static/passive, so an 18-campaign matrix stays fast
// even under -race.
var fleetTestBase = Config{LimitKm: 8, SkipApps: true, SkipStatic: true, SkipPassive: true}

// TestFleetSingleRunMatchesRun pins the fleet's degenerate case to the
// single-campaign engine: a 1-replicate, empty-sweep fleet must archive
// a dataset byte-identical to plain Run with the derived seed — the
// fleet layer adds orchestration, never simulation.
func TestFleetSingleRunMatchesRun(t *testing.T) {
	dir := t.TempDir()
	res, err := RunFleet(FleetConfig{
		MasterSeed: 9,
		Replicates: 1,
		Base:       fleetTestBase,
		ArchiveDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs() != 1 || res.Failed() != 0 {
		t.Fatalf("fleet ran %d runs (%d failed), want exactly 1 ok", res.Runs(), res.Failed())
	}
	archived, err := os.ReadFile(filepath.Join(dir, "run-000.json"))
	if err != nil {
		t.Fatal(err)
	}

	direct := fleetTestBase
	direct.Seed = fleet.RunSeed(9, "", 0)
	study, err := Run(direct)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := study.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(archived, want.Bytes()) {
		t.Error("fleet-archived dataset differs from plain Run with the derived seed")
	}
}

// fleetOutputs runs the canonical 6-run test fleet (2 sweep cells × 3
// replicates) and returns its report and manifest bytes.
func fleetOutputs(t *testing.T, workers int, rec *obs.Recorder) (string, []byte) {
	t.Helper()
	res, err := RunFleet(FleetConfig{
		MasterSeed: 4,
		Replicates: 3,
		Base:       fleetTestBase,
		Sweep: []SweepAxis{{
			Field:  "disable_edge",
			Values: []json.RawMessage{json.RawMessage("false"), json.RawMessage("true")},
		}},
		Workers: workers,
		Obs:     rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() != 0 {
		t.Fatalf("%d of %d runs failed", res.Failed(), res.Runs())
	}
	var man bytes.Buffer
	if err := res.WriteManifest(&man); err != nil {
		t.Fatal(err)
	}
	return res.Report(), man.Bytes()
}

// TestFleetReportWorkerInvariant is the fleet-level determinism
// acceptance test: a 6-run sweep fleet produces a byte-identical report
// and manifest for workers 1, 2, and 4. CI runs it under -race, which
// also exercises the pool's synchronization.
func TestFleetReportWorkerInvariant(t *testing.T) {
	report1, manifest1 := fleetOutputs(t, 1, nil)
	for _, w := range []int{2, 4} {
		report, manifest := fleetOutputs(t, w, nil)
		if report != report1 {
			t.Errorf("report differs between workers=1 and workers=%d", w)
		}
		if !bytes.Equal(manifest, manifest1) {
			t.Errorf("manifest differs between workers=1 and workers=%d", w)
		}
	}
	// The same fleet with observability attached must also be invariant:
	// obs is a side channel at the fleet level exactly as per campaign.
	reportObs, manifestObs := fleetOutputs(t, 2, obs.New())
	if reportObs != report1 {
		t.Error("report differs with observability attached")
	}
	if !bytes.Equal(manifestObs, manifest1) {
		t.Error("manifest differs with observability attached")
	}
}

// TestFleetPanicContainment pins the failure contract through RunFleet:
// an injected panic becomes a manifest failure entry and leaves every
// sibling run intact.
func TestFleetPanicContainment(t *testing.T) {
	var panicked string
	res, err := RunFleet(FleetConfig{
		MasterSeed: 6,
		Replicates: 3,
		Base:       fleetTestBase,
		Workers:    2,
		TestHookStart: func(index int, cell string, replicate int) {
			if index == 1 {
				panicked = cell
				panic("injected fleet failure")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() != 1 || res.Runs() != 3 {
		t.Fatalf("runs = %d, failed = %d; want 3 runs with 1 failure", res.Runs(), res.Failed())
	}
	var buf bytes.Buffer
	if err := res.WriteManifest(&buf); err != nil {
		t.Fatal(err)
	}
	var man fleet.Manifest
	if err := json.Unmarshal(buf.Bytes(), &man); err != nil {
		t.Fatal(err)
	}
	for _, rec := range man.Runs {
		if rec.Index == 1 {
			if rec.Status != fleet.RunFailed || !strings.Contains(rec.Error, "injected fleet failure") {
				t.Errorf("run 1 = %+v, want the contained panic", rec)
			}
		} else if rec.Status != fleet.RunOK {
			t.Errorf("sibling run %d was killed: %+v", rec.Index, rec)
		}
	}
	if panicked != "" {
		t.Errorf("hook saw cell %q, want the base cell", panicked)
	}
	// The surviving replicates still feed the report.
	if !strings.Contains(res.Report(), "2/3 replicates ok") {
		t.Errorf("report does not show the survivors:\n%s", res.Report())
	}
}

// TestFleetObsCountsRuns checks the fleet-level obs wiring: run counters
// and fleet phase timers land in the merged manifest, and the identity
// labels are fleet-level, not whichever run stamped last.
func TestFleetObsCountsRuns(t *testing.T) {
	rec := obs.New()
	res, err := RunFleet(FleetConfig{
		MasterSeed: 11,
		Replicates: 2,
		Base:       fleetTestBase,
		Obs:        rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	man := rec.Manifest()
	if got := man.Counters["fleet/runs_ok"]; got != int64(res.Runs()) {
		t.Errorf("fleet/runs_ok = %d, want %d", got, res.Runs())
	}
	if got := man.Counters["fleet/runs_failed"]; got != 0 {
		t.Errorf("fleet/runs_failed = %d, want 0", got)
	}
	for _, phase := range []string{"fleet/expand", "fleet/runs", "fleet/reduce"} {
		if _, ok := man.PhaseMS[phase]; !ok {
			t.Errorf("phase %q missing from the merged manifest", phase)
		}
	}
	if got := man.Labels["seed"]; got != "11" {
		t.Errorf("seed label = %q, want the fleet master seed", got)
	}
	if got := man.Labels["fleet_runs"]; got != "2" {
		t.Errorf("fleet_runs label = %q, want 2", got)
	}
}

// TestFleetConfigHashIgnoresWorkers pins the fleet manifest's
// config_sha256 to the fleet's identity: fleets that differ only in how
// many runs or lanes execute at once, whose outputs are byte-identical,
// carry one hash, and a fleet with another master seed another.
func TestFleetConfigHashIgnoresWorkers(t *testing.T) {
	hash := func(seed int64, workers, laneWorkers int) string {
		t.Helper()
		rec := obs.New()
		base := fleetTestBase
		base.LimitKm, base.Workers = 2, laneWorkers
		if _, err := RunFleet(FleetConfig{MasterSeed: seed, Replicates: 2, Base: base, Workers: workers, Obs: rec}); err != nil {
			t.Fatal(err)
		}
		return rec.Manifest().Labels["config_sha256"]
	}
	want := hash(1, 0, 0)
	for _, w := range [][2]int{{1, 0}, {2, 0}, {1, 1}, {2, 3}} {
		if got := hash(1, w[0], w[1]); got != want {
			t.Errorf("workers %d, base workers %d: config_sha256 = %s, want %s", w[0], w[1], got, want)
		}
	}
	if other := hash(2, 0, 0); other == want {
		t.Errorf("master seeds 1 and 2 share config_sha256 %s", want)
	}
}

func TestParseFleetScenario(t *testing.T) {
	cfg, err := ParseFleetScenario(strings.NewReader(`{
		"master_seed": 7,
		"replicates": 3,
		"base": {"limit_km": 25, "skip_apps": true},
		"sweep": [{"field": "disable_edge", "values": [false, true]}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.MasterSeed != 7 || cfg.Replicates != 3 || cfg.Base.LimitKm != 25 ||
		!cfg.Base.SkipApps || len(cfg.Sweep) != 1 || cfg.Sweep[0].Field != "disable_edge" {
		t.Errorf("parsed scenario = %+v", cfg)
	}
	if _, err := ParseFleetScenario(strings.NewReader(`{"master_sed": 7}`)); err == nil {
		t.Error("scenario with a typo'd key was accepted")
	}
	if _, err := ParseFleetScenario(strings.NewReader(`{"base": {"limit_kms": 1}}`)); err == nil {
		t.Error("scenario with an unknown base field was accepted")
	}
}

// TestFleetRejectsBadSweep: malformed sweeps fail fast, before any
// campaign runs.
func TestFleetRejectsBadSweep(t *testing.T) {
	cases := []SweepAxis{
		{Field: "no_such_field", Values: []json.RawMessage{json.RawMessage("1")}},
		{Field: "limit_km", Values: []json.RawMessage{json.RawMessage(`"not a number"`)}},
		{Field: "limit_km"},
	}
	for _, axis := range cases {
		_, err := RunFleet(FleetConfig{Base: fleetTestBase, Sweep: []SweepAxis{axis}})
		if err == nil {
			t.Errorf("RunFleet accepted bad sweep axis %+v", axis)
		}
	}
}

// TestApplyFleetOverrides exercises the JSON round-trip override path
// directly.
func TestApplyFleetOverrides(t *testing.T) {
	base := Config{LimitKm: 10, SkipApps: true}
	got, err := applyFleetOverrides(base, []fleet.Override{
		{Field: "limit_km", Value: json.RawMessage("50")},
		{Field: "disable_policy", Value: json.RawMessage("true")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.LimitKm != 50 || !got.DisablePolicy || !got.SkipApps {
		t.Errorf("override result = %+v", got)
	}
	if _, err := applyFleetOverrides(base, []fleet.Override{{Field: "Obs", Value: json.RawMessage("null")}}); err == nil {
		t.Error("the Obs side channel must not be sweepable")
	}
}

// limitSweep is a sweep of n limit_km values, 1 to n km.
func limitSweep(n int) []SweepAxis {
	vals := make([]string, n)
	for i := range vals {
		vals[i] = strconv.Itoa(i + 1)
	}
	return []SweepAxis{{Field: "limit_km", Values: rawJSON(vals...)}}
}

// TestFleetSizeBounds pins MaxReplicates and MaxFleetRuns: one replicate
// or one planned run past either bound fails Validate, RunFleet, and the
// collector and worker entry points FleetReducer and FleetCells, before
// any per-run state is built; the bounds themselves are valid. A
// rejection costs no more than the spec's size, however many runs it
// asks for.
func TestFleetSizeBounds(t *testing.T) {
	if MaxFleetRuns+1 != 73*137 {
		t.Fatalf("MaxFleetRuns+1 = %d; pick a new factorisation for the sweep below", MaxFleetRuns+1)
	}
	base := Config{LimitKm: 1, SkipApps: true}
	for _, tc := range []struct {
		name string
		cfg  FleetConfig
		want string
	}{
		{"replicates", FleetConfig{Replicates: MaxReplicates + 1, Base: base}, "replicates must be at most"},
		{"huge replicates", FleetConfig{Replicates: 1 << 40, Base: base}, "replicates must be at most"},
		{"planned runs", FleetConfig{Replicates: 73, Base: base, Sweep: limitSweep(137)}, "plan more than"},
		{"planned cells", FleetConfig{Base: base, Sweep: append(limitSweep(MaxFleetRuns/2), SweepAxis{Field: "skip_apps", Values: rawJSON("false", "true", "null")})}, "plan more than"},
	} {
		if err := tc.cfg.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want %q", tc.name, err, tc.want)
		}
		if _, err := RunFleet(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: RunFleet = %v, want %q", tc.name, err, tc.want)
		}
		if _, err := FleetReducer(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: FleetReducer = %v, want %q", tc.name, err, tc.want)
		}
		if _, err := FleetCells(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: FleetCells = %v, want %q", tc.name, err, tc.want)
		}
	}
	huge := FleetConfig{Replicates: 1 << 40, Base: base, Sweep: limitSweep(3)}
	if allocs := testing.AllocsPerRun(10, func() { _ = huge.Validate() }); allocs > 20 {
		t.Errorf("rejecting 2^40 replicates allocates %v objects", allocs)
	}

	for _, cfg := range []FleetConfig{
		{Replicates: MaxReplicates, Base: base},
		{Replicates: 100, Base: base, Sweep: limitSweep(100)},
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%d replicates × %d cells: %v", cfg.Replicates, max(len(cfg.Sweep), 1), err)
		}
		if _, err := FleetReducer(cfg); err != nil {
			t.Errorf("FleetReducer at the bound: %v", err)
		}
	}
}

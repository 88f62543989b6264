// Command fleetrun executes a fleet scenario: many cellwheels campaigns
// — a sweep grid over config fields times a replicate count — run as one
// deterministic job, reduced to cross-replicate statistics per sweep
// cell.
//
// Usage:
//
//	fleetrun -scenario fleet.json [-workers N] [-out dir]
//	         [-archive] [-metrics manifest.json]
//	fleetrun -scenario fleet.json -push http://host:8080 [-cells 0-1,3]
//
// The fleet report is printed to stdout and written, together with the
// fleet manifest (the full run matrix with per-run seeds and outcomes),
// into the -out directory. Both are byte-identical for any -workers
// value. -archive additionally keeps every run's full dataset under
// <out>/runs/; without it datasets are discarded as soon as their
// headline metrics are folded in, so fleets of any size run in bounded
// memory. A scenario's own archive_dir, when relative, resolves against
// the scenario file's directory.
//
// Distributed fleets split the same scenario across machines. The
// collector is a wheelsd collect job (internal/serve): it receives
// content-addressed run artifacts from workers at /fleetsync/v1,
// validates each against the scenario's positional run matrix, and
// reduces them streamingly; once every expected run has arrived it
// writes the same report and manifest — byte-identical — that a
// single-process run would. -push runs a worker: it executes its -cells
// subset of the sweep (comma-separated cell indexes and ranges; default
// all) and pushes each finished run to the collector in one idempotent
// request — a worker can crash mid-push and simply be rerun. A
// worker fingerprints the scenario file (sha256) and the collect job
// pins the same hash, so a worker pushing a different scenario is
// rejected before any run is folded.
//
// A run that fails — including one that panics — is contained: it is
// recorded in the fleet manifest with its error, its sibling runs
// complete, and fleetrun exits nonzero.
package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"github.com/nuwins/cellwheels"
	"github.com/nuwins/cellwheels/internal/atomicio"
	"github.com/nuwins/cellwheels/internal/fleetsync"
	"github.com/nuwins/cellwheels/internal/obs"
)

// testHookStart is the test-only failure-injection seam: main_test.go
// points it at a panicking hook to pin the containment contract through
// the real CLI path. Always nil in production.
var testHookStart func(index int, cell string, replicate int)

func main() { os.Exit(realMain(os.Args[1:])) }

func realMain(args []string) int {
	fs := flag.NewFlagSet("fleetrun", flag.ContinueOnError)
	var (
		scenario    = fs.String("scenario", "", "fleet scenario JSON (required; see ParseFleetScenario)")
		workers     = fs.Int("workers", 0, "concurrent runs; overrides the scenario's value (0 = keep it); output is identical for any value")
		out         = fs.String("out", "fleet-out", "output directory for fleet-report.txt and fleet-manifest.json")
		archive     = fs.Bool("archive", false, "keep every run's full dataset under <out>/runs/ instead of discarding after reduction")
		metricsPath = fs.String("metrics", "", "write the merged observability manifest (JSON) to this path")
		pushURL     = fs.String("push", "", "run as a fleetsync worker: execute this scenario (or its -cells subset) and push finished runs to the collector at this URL")
		cellsSpec   = fs.String("cells", "", "with -push: the sweep-cell indexes this worker runs, as comma-separated indexes and ranges (e.g. \"0-1,3\"); empty means every cell")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *scenario == "" {
		fmt.Fprintln(os.Stderr, "fleetrun: -scenario is required")
		fs.Usage()
		return 2
	}
	if *cellsSpec != "" && *pushURL == "" {
		fmt.Fprintln(os.Stderr, "fleetrun: -cells only makes sense with -push")
		return 2
	}

	// The recorder is the only wall clock this command touches.
	rec := obs.New()

	// The scenario is read whole so a worker can present the collector a
	// fingerprint of its exact bytes — not its parsed meaning.
	raw, err := os.ReadFile(*scenario)
	if err != nil {
		return fail(err)
	}
	fingerprint := fmt.Sprintf("%x", sha256.Sum256(raw))
	cfg, err := cellwheels.ParseFleetScenario(bytes.NewReader(raw))
	if err != nil {
		return fail(err)
	}
	cfg.Obs = rec
	cfg.TestHookStart = testHookStart
	if *workers != 0 {
		cfg.Workers = *workers
	}
	// A scenario's own archive_dir is relative to the scenario file, not
	// to wherever fleetrun happens to be invoked from.
	if cfg.ArchiveDir != "" && !filepath.IsAbs(cfg.ArchiveDir) {
		cfg.ArchiveDir = filepath.Join(filepath.Dir(*scenario), cfg.ArchiveDir)
	}

	if *pushURL != "" {
		return runWorker(cfg, rec, *pushURL, *cellsSpec, *out, *archive, *metricsPath, fingerprint)
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		return fail(fmt.Errorf("create output directory %s: %w", *out, err))
	}
	if *archive {
		cfg.ArchiveDir = filepath.Join(*out, "runs")
	}

	res, err := cellwheels.RunFleet(cfg)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(os.Stderr, "fleet finished in %v: %d runs, %d failed\n",
		//lint:allow timetaint — stderr banner timing only; never reaches the report or manifest
		rec.Elapsed().Round(time.Millisecond), res.Runs(), res.Failed())
	report := res.Report()
	fmt.Print(report)
	if err := atomicio.WriteFile(filepath.Join(*out, "fleet-report.txt"), 0o644, func(w io.Writer) error {
		_, werr := io.WriteString(w, report)
		return werr
	}); err != nil {
		return fail(err)
	}
	manifestPath := filepath.Join(*out, "fleet-manifest.json")
	if err := atomicio.WriteFile(manifestPath, 0o644, res.WriteManifest); err != nil {
		return fail(err)
	}
	fmt.Fprintf(os.Stderr, "fleet report and manifest written to %s/\n", *out)

	if *metricsPath != "" {
		rec.SetLabel("fleet_manifest", manifestPath)
		if err := rec.WriteManifestFile(*metricsPath); err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "obs manifest written to %s\n", *metricsPath)
	}
	if res.Failed() > 0 {
		fmt.Fprintf(os.Stderr, "fleetrun: %d of %d runs failed (see %s)\n", res.Failed(), res.Runs(), manifestPath)
		return 1
	}
	return 0
}

// runWorker is -push: execute the worker's cell subset and sync every
// finished run to the collector. The collector writes the fleet outputs;
// the worker's -out is only used when it archives its own datasets.
func runWorker(cfg cellwheels.FleetConfig, rec *obs.Recorder, pushURL, cellsSpec, out string, archive bool, metricsPath, fingerprint string) int {
	cells, err := cellwheels.FleetCells(cfg)
	if err != nil {
		return fail(err)
	}
	keep, err := parseCells(cellsSpec, len(cells))
	if err != nil {
		return fail(err)
	}
	if archive {
		if err := os.MkdirAll(out, 0o755); err != nil {
			return fail(fmt.Errorf("create output directory %s: %w", out, err))
		}
		cfg.ArchiveDir = filepath.Join(out, "runs")
	}
	p, err := fleetsync.NewPusher(fleetsync.PusherConfig{
		BaseURL:  pushURL,
		Scenario: fingerprint,
		Obs:      rec,
	})
	if err != nil {
		return fail(err)
	}
	// Fail fast — before any campaign runs — if the collector is absent
	// or reducing a different scenario.
	man, err := p.Status()
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(os.Stderr, "collector at %s holds %d of %d runs\n", pushURL, man.Received, man.Total)

	if keep != nil {
		cfg.CellFilter = func(i int, _ string) bool { return keep[i] }
	}
	cfg.OnRun = p.PushRun
	res, err := cellwheels.RunFleet(cfg)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(os.Stderr, "worker finished in %v: %d runs (%d failed) pushed to %s, %d retries\n",
		//lint:allow timetaint — stderr banner timing only; never reaches the report or manifest
		rec.Elapsed().Round(time.Millisecond), res.Runs(), res.Failed(), pushURL,
		rec.Counter("fleetsync/retries").Value())

	if metricsPath != "" {
		if err := rec.WriteManifestFile(metricsPath); err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "obs manifest written to %s\n", metricsPath)
	}
	if res.Failed() > 0 {
		fmt.Fprintf(os.Stderr, "fleetrun: %d of %d runs failed (recorded in the collector's manifest)\n",
			res.Failed(), res.Runs())
		return 1
	}
	return 0
}

// parseCells parses a -cells spec ("0-1,3") into the kept cell-index
// set, validated against the scenario's n sweep cells. Empty spec means
// no restriction (nil set).
func parseCells(spec string, n int) (map[int]bool, error) {
	if spec == "" {
		return nil, nil
	}
	keep := make(map[int]bool)
	for _, part := range strings.Split(spec, ",") {
		lo, hi, isRange := strings.Cut(strings.TrimSpace(part), "-")
		if !isRange {
			hi = lo
		}
		a, errA := strconv.Atoi(lo)
		b, errB := strconv.Atoi(hi)
		if errA != nil || errB != nil {
			return nil, fmt.Errorf("bad -cells entry %q (want an index or lo-hi range)", part)
		}
		if a > b || a < 0 || b >= n {
			return nil, fmt.Errorf("-cells entry %q outside this scenario's %d sweep cells", part, n)
		}
		for i := a; i <= b; i++ {
			keep[i] = true
		}
	}
	return keep, nil
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "fleetrun:", err)
	return 1
}

package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"github.com/nuwins/cellwheels"
	"github.com/nuwins/cellwheels/internal/fleet"
	"github.com/nuwins/cellwheels/internal/fleetsync"
	"github.com/nuwins/cellwheels/internal/obs"
)

// testHookStart is the test-only failure-injection seam: the fleet
// tests point it at a panicking hook to pin the containment contract
// through the real CLI path. Always nil in production.
var testHookStart func(index int, cell string, replicate int)

// fleetCmd is `cellwheels fleet`: run a fleet scenario in this process,
// or, with -push, run part of one as a fleetsync worker.
func fleetCmd(args []string) int {
	fs := flag.NewFlagSet("cellwheels fleet", flag.ContinueOnError)
	var (
		scenario    = fs.String("scenario", "", "fleet scenario JSON (required; see ParseFleetScenario)")
		workers     = fs.Int("workers", 0, "concurrent runs; overrides the scenario's value (0 = keep it); output is identical for any value")
		out         = fs.String("out", "fleet-out", "output directory for fleet-report.txt and fleet-manifest.json")
		archive     = fs.Bool("archive", false, "keep every run's full dataset under <out>/runs/ instead of discarding after reduction")
		metricsPath = fs.String("metrics", "", "write the merged observability manifest (JSON) to this path")
		pushURL     = fs.String("push", "", "run as a fleetsync worker: execute this scenario (or its -cells subset) and push finished runs to the collector at this URL")
		cellsSpec   = fs.String("cells", "", "with -push: the sweep-cell indexes this worker runs, as comma-separated indexes and ranges (e.g. \"0-1,3\"); empty means every cell")
	)
	if fs.Parse(args) != nil {
		return 2
	}
	if *scenario == "" {
		return usageError("fleet: -scenario is required")
	}
	if *cellsSpec != "" && *pushURL == "" {
		return usageError("fleet: -cells only makes sense with -push")
	}

	// The recorder is the only wall clock this command touches.
	rec := obs.New()

	// The scenario is read whole so a worker can present the collector a
	// fingerprint of its exact bytes — not its parsed meaning.
	raw, err := os.ReadFile(*scenario)
	if err != nil {
		return fail(err)
	}
	cfg, err := cellwheels.ParseFleetScenario(bytes.NewReader(raw))
	if err != nil {
		return fail(err)
	}
	// A rejected scenario touches nothing: no collector is asked for its
	// status and no output directory is made.
	if err := cfg.Validate(); err != nil {
		return fail(err)
	}
	cfg.Obs = rec
	cfg.TestHookStart = testHookStart
	if *workers != 0 {
		cfg.Workers = *workers
	}
	// A scenario's own archive_dir is relative to the scenario file, not
	// to wherever the command happens to be invoked from.
	if cfg.ArchiveDir != "" && !filepath.IsAbs(cfg.ArchiveDir) {
		cfg.ArchiveDir = filepath.Join(filepath.Dir(*scenario), cfg.ArchiveDir)
	}
	if *pushURL != "" {
		if err := startWorker(&cfg, rec, *pushURL, *cellsSpec, fmt.Sprintf("%x", sha256.Sum256(raw))); err != nil {
			return fail(err)
		}
	}
	// A worker's -out only holds its own archived datasets; the collector
	// writes the fleet outputs.
	if *pushURL == "" || *archive {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return fail(fmt.Errorf("create output directory %s: %w", *out, err))
		}
	}
	if *archive {
		cfg.ArchiveDir = filepath.Join(*out, "runs")
	}

	res, err := cellwheels.RunFleet(cfg)
	if err != nil {
		return fail(err)
	}
	failures := "recorded in the collector's manifest"
	if *pushURL != "" {
		fmt.Fprintf(os.Stderr, "worker finished in %v: %d runs (%d failed) pushed to %s, %d retries\n",
			//lint:allow timetaint — stderr banner timing only; never reaches the report or manifest
			rec.Elapsed().Round(time.Millisecond), res.Runs(), res.Failed(), *pushURL,
			rec.Counter("fleetsync/retries").Value())
	} else {
		fmt.Fprintf(os.Stderr, "fleet finished in %v: %d runs, %d failed\n",
			//lint:allow timetaint — stderr banner timing only; never reaches the report or manifest
			rec.Elapsed().Round(time.Millisecond), res.Runs(), res.Failed())
		fmt.Print(res.Report())
		if err := res.WriteOutputs(*out); err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "fleet report and manifest written to %s/\n", *out)
		manifestPath := filepath.Join(*out, fleet.ManifestFile)
		rec.SetLabel("fleet_manifest", manifestPath)
		failures = "see " + manifestPath
	}

	if err := writeMetrics(rec, *metricsPath); err != nil {
		return fail(err)
	}
	if res.Failed() > 0 {
		fmt.Fprintf(os.Stderr, "cellwheels: fleet: %d of %d runs failed (%s)\n", res.Failed(), res.Runs(), failures)
		return 1
	}
	return 0
}

// startWorker turns cfg into a -push worker's fleet: only the cells in
// cellsSpec run, and each finished run is pushed to the collector at
// pushURL. It fails fast, before any campaign runs, on a bad cell spec,
// an absent collector, or one reducing a different scenario.
func startWorker(cfg *cellwheels.FleetConfig, rec *obs.Recorder, pushURL, cellsSpec, fingerprint string) error {
	cells, err := cellwheels.FleetCells(*cfg)
	if err != nil {
		return err
	}
	keep, err := parseCells(cellsSpec, len(cells))
	if err != nil {
		return err
	}
	p, err := fleetsync.NewPusher(fleetsync.PusherConfig{
		BaseURL:  pushURL,
		Scenario: fingerprint,
		Obs:      rec,
	})
	if err != nil {
		return err
	}
	man, err := p.Status()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "collector at %s holds %d of %d runs\n", pushURL, man.Received, man.Total)
	if keep != nil {
		cfg.CellFilter = func(i int, _ string) bool { return keep[i] }
	}
	cfg.OnRun = p.PushRun
	return nil
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

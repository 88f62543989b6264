package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	"github.com/nuwins/cellwheels"
	"github.com/nuwins/cellwheels/internal/obs"
)

// runCmd is `cellwheels run`: execute a campaign and write its dataset.
func runCmd(args []string) int {
	fs := flag.NewFlagSet("cellwheels run", flag.ContinueOnError)
	cfg := campaignFlags(fs)
	var (
		out         = fs.String("out", "dataset.json", "output dataset path")
		csvDir      = fs.String("csv", "", "also write per-table CSVs into this directory")
		geoDir      = fs.String("geojson", "", "also write route + coverage GeoJSON into this directory")
		progress    = fs.Bool("progress", false, "print a periodic progress line (odometer, tick rate, ETA) to stderr")
		metricsPath = fs.String("metrics", "", "write a machine-readable run manifest (JSON) to this path")
		pprofPath   = fs.String("pprof", "", "write a CPU profile of the run to this path")
	)
	if fs.Parse(args) != nil {
		return 2
	}

	// The recorder is the only wall clock this command touches: run
	// timing, progress reporting, and the manifest all read it, and none
	// of it feeds the simulation.
	rec := obs.New()
	if *progress {
		rec.EnableProgress(os.Stderr, time.Second)
	}
	cfg.Obs = rec

	if *pprofPath != "" {
		f, err := os.Create(*pprofPath)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "cellwheels: pprof:", err)
			}
		}()
	}

	study, err := cellwheels.Run(*cfg)
	if err != nil {
		return fail(err)
	}
	//lint:allow timetaint — stderr banner timing only; never reaches the dataset
	fmt.Fprintf(os.Stderr, "campaign finished in %v\n", rec.Elapsed().Round(time.Millisecond))
	fmt.Fprint(os.Stderr, study.Summary())

	// WriteJSONFile writes atomically: a failed write never leaves a
	// truncated dataset behind.
	stop := rec.StartPhase("write")
	err = study.WriteJSONFile(*out)
	stop()
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(os.Stderr, "dataset written to %s\n", *out)

	if *geoDir != "" {
		if err := study.WriteCoverageGeoJSON(*geoDir); err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "GeoJSON written to %s/\n", *geoDir)
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return fail(err)
		}
		if err := study.WriteCSV(*csvDir); err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "CSV tables written to %s/\n", *csvDir)
	}

	rec.SetLabel("dataset", *out)
	if err := writeMetrics(rec, *metricsPath); err != nil {
		return fail(err)
	}
	return 0
}

// Command drivetest runs a cellwheels measurement campaign and writes the
// consolidated dataset, mirroring the paper's data-collection phase.
//
// Usage:
//
//	drivetest -seed 42 -out dataset.json [-limit-km 500] [-csv dir]
//	          [-skip-apps] [-skip-static] [-skip-passive]
//	          [-disable-edge] [-disable-policy] [-workers N]
//	          [-crowd N] [-crowd-samples M] [-load-model standin|demand]
//	          [-progress] [-metrics manifest.json] [-pprof cpu.out]
//
// The full 5,711 km campaign takes about 9 s and peaks below 700 MB RSS
// on a 2-vCPU host, writing its ~215 MB dataset included; use -limit-km
// for quick runs. -crowd attaches N background UEs per operator
// (the metro-scale crowd); -load-model demand makes the handsets see the
// crowd's aggregate sector demand instead of the per-UE stand-in.
// -progress prints a periodic status line to stderr, -metrics writes a
// machine-readable run manifest, and -pprof captures a CPU profile of the
// whole run. All three are side channels: the dataset is byte-identical
// with or without them.
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

func main() {
	var (
		seed          = flag.Int64("seed", 1, "campaign seed (same seed, same dataset)")
		out           = flag.String("out", "dataset.json", "output dataset path")
		csvDir        = flag.String("csv", "", "also write per-table CSVs into this directory")
		rawDir        = flag.String("raw", "", "also archive the raw XCAL captures (.drm) into this directory")
		geoDir        = flag.String("geojson", "", "also write route + coverage GeoJSON into this directory")
		limitKm       = flag.Float64("limit-km", 0, "truncate the drive after this many km (0 = full route)")
		skipApps      = flag.Bool("skip-apps", false, "skip the four application workloads")
		skipStatic    = flag.Bool("skip-static", false, "skip per-city static baselines")
		skipPassive   = flag.Bool("skip-passive", false, "skip the passive handover loggers")
		disableEdge   = flag.Bool("disable-edge", false, "remove Wavelength edge servers (ablation)")
		disablePolicy = flag.Bool("disable-policy", false, "always serve the best technology (ablation)")
		workers       = flag.Int("workers", 0, "concurrent operator lanes (0 = GOMAXPROCS); output is identical for any value")
		crowd         = flag.Int("crowd", 0, "background UEs per operator (0 = no crowd)")
		crowdSamples  = flag.Int("crowd-samples", 0, "crowd UEs running speedtest measurements (0 = 120 when a crowd is enabled)")
		loadModel     = flag.String("load-model", "", "sector-load backend the handsets see: standin (default) or demand (crowd-driven)")
		progress      = flag.Bool("progress", false, "print a periodic progress line (odometer, tick rate, ETA) to stderr")
		metricsPath   = flag.String("metrics", "", "write a machine-readable run manifest (JSON) to this path")
		pprofPath     = flag.String("pprof", "", "write a CPU profile of the run to this path")
	)
	flag.Parse()

	// The recorder is the only wall clock this command touches: run
	// timing, progress reporting, and the manifest all read it, and none
	// of it feeds the simulation.
	rec := obs.New()
	if *progress {
		rec.EnableProgress(os.Stderr, time.Second)
	}

	if *pprofPath != "" {
		f, err := os.Create(*pprofPath)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "drivetest: pprof:", err)
			}
		}()
	}

	cfg := cellwheels.Config{
		Seed:          *seed,
		LimitKm:       *limitKm,
		SkipApps:      *skipApps,
		SkipStatic:    *skipStatic,
		SkipPassive:   *skipPassive,
		DisableEdge:   *disableEdge,
		DisablePolicy: *disablePolicy,
		Workers:       *workers,
		CrowdSize:     *crowd,
		CrowdSamples:  *crowdSamples,
		LoadModel:     *loadModel,
		Obs:           rec,
	}
	var study *cellwheels.Study
	var err error
	if *rawDir != "" {
		study, err = cellwheels.RunArchivingRaw(cfg, *rawDir)
	} else {
		study, err = cellwheels.Run(cfg)
	}
	if err != nil {
		fatal(err)
	}
	if *rawDir != "" {
		fmt.Fprintf(os.Stderr, "raw captures archived to %s/\n", *rawDir)
	}
	//lint:allow timetaint — stderr banner timing only; never reaches the dataset
	fmt.Fprintf(os.Stderr, "campaign finished in %v\n", rec.Elapsed().Round(time.Millisecond))
	fmt.Fprint(os.Stderr, study.Summary())

	if err := writeDataset(*out, study); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "dataset written to %s\n", *out)

	if *geoDir != "" {
		if err := os.MkdirAll(*geoDir, 0o755); err != nil {
			fatal(err)
		}
		if err := study.WriteCoverageGeoJSON(*geoDir); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "GeoJSON written to %s/\n", *geoDir)
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fatal(err)
		}
		if err := study.WriteCSV(*csvDir); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "CSV tables written to %s/\n", *csvDir)
	}

	if *metricsPath != "" {
		rec.SetLabel("dataset", *out)
		if err := rec.WriteManifestFile(*metricsPath); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "run manifest written to %s\n", *metricsPath)
	}
}

// writeDataset serializes the dataset atomically via WriteJSONFile —
// a failed write never leaves a truncated dataset behind.
func writeDataset(path string, study *cellwheels.Study) error {
	return study.WriteJSONFile(path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "drivetest:", err)
	os.Exit(1)
}

// Command wheelsreport runs a campaign and prints the full paper-style
// report in one shot — the tool EXPERIMENTS.md's numbers come from.
//
// Usage:
//
//	wheelsreport -seed 1                 # full 5,711 km campaign
//	wheelsreport -seed 1 -limit-km 800   # quicker partial run
//
// Headline tables with variance across replicate seeds come from
// fleetrun with a scenario's "replicates" count.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/nuwins/cellwheels"
	"github.com/nuwins/cellwheels/internal/obs"
)

func main() {
	var (
		seed      = flag.Int64("seed", 1, "campaign seed")
		limitKm   = flag.Float64("limit-km", 0, "truncate the drive (0 = full route)")
		crowd     = flag.Int("crowd", 0, "also simulate this many Ookla-style static crowd samples per carrier (measured Table 3)")
		crowdSize = flag.Int("crowd-size", 0, "attach this many background UEs per carrier; the measured Table 3 then comes from in-run crowd flows")
		loadModel = flag.String("load-model", "", "sector-load backend the handsets see: standin (default) or demand (crowd-driven)")
	)
	flag.Parse()

	// The recorder is the only wall clock this command touches; it times
	// the run for the stderr banner and never feeds the simulation.
	rec := obs.New()

	study, err := cellwheels.Run(cellwheels.Config{
		Seed:         *seed,
		LimitKm:      *limitKm,
		CrowdSize:    *crowdSize,
		CrowdSamples: *crowd,
		LoadModel:    *loadModel,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "wheelsreport:", err)
		os.Exit(1)
	}
	//lint:allow timetaint — stderr banner timing only; never reaches the report
	fmt.Fprintf(os.Stderr, "campaign finished in %v\n\n", rec.Elapsed().Round(time.Millisecond))
	fmt.Print(study.Summary())
	fmt.Println()
	fmt.Print(study.Report())
	if *crowd > 0 || *crowdSize > 0 {
		fmt.Println(study.MeasuredOokla(*crowd))
	}
}

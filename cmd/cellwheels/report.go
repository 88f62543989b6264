package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/nuwins/cellwheels"
	"github.com/nuwins/cellwheels/internal/obs"
)

// reportCmd is `cellwheels report`: render the paper's tables and
// figures from a dataset file (-in) or from a campaign it runs.
func reportCmd(args []string) int {
	fs := flag.NewFlagSet("cellwheels report", flag.ContinueOnError)
	cfg := campaignFlags(fs)
	var (
		in          = fs.String("in", "", "dataset path (from cellwheels run); empty runs the campaign the campaign flags describe")
		section     = fs.String("section", "", "one section id (default: full report)")
		list        = fs.Bool("list", false, "list section ids and exit")
		metricsPath = fs.String("metrics", "", "write a machine-readable manifest (JSON) to this path: the load phase with -in or the campaign's phases without, and the report phase")
	)
	if fs.Parse(args) != nil {
		return 2
	}
	if *list {
		fmt.Println(strings.Join(cellwheels.SectionIDs(), "\n"))
		return 0
	}

	// The recorder times the campaign or the load, and the render, for
	// the stderr banner and the manifest; it never feeds the report.
	rec := obs.New()
	var study *cellwheels.Study
	if *in != "" {
		campaignFlag := ""
		fs.Visit(func(f *flag.Flag) {
			if f.Name != "in" && f.Name != "section" && f.Name != "metrics" {
				campaignFlag = f.Name
			}
		})
		if campaignFlag != "" {
			return usageError("-" + campaignFlag + " is a campaign flag; -in reads a dataset instead of running one")
		}
		f, err := os.Open(*in)
		if err != nil {
			return fail(err)
		}
		defer f.Close() //lint:allow uncheckederr — the dataset is only read; a close failure cannot corrupt it
		stop := rec.StartPhase("load")
		study, err = cellwheels.Load(f)
		stop()
		if err != nil {
			return fail(err)
		}
		rec.SetLabel("dataset", *in)
	} else {
		cfg.Obs = rec
		var err error
		if study, err = cellwheels.Run(*cfg); err != nil {
			return fail(err)
		}
		//lint:allow timetaint — stderr banner timing only; never reaches the report
		fmt.Fprintf(os.Stderr, "campaign finished in %v\n\n", rec.Elapsed().Round(time.Millisecond))
	}

	stop := rec.StartPhase("report")
	if *section != "" {
		out, err := study.Section(*section)
		if err != nil {
			return fail(err)
		}
		fmt.Print(out)
	} else {
		if *in == "" {
			fmt.Print(study.Summary())
			fmt.Println()
		}
		fmt.Print(study.Report())
		if *in == "" && (cfg.CrowdSamples > 0 || cfg.CrowdSize > 0) {
			fmt.Println(study.MeasuredOokla(cfg.CrowdSamples))
		}
	}
	stop()
	if err := writeMetrics(rec, *metricsPath); err != nil {
		return fail(err)
	}
	return 0
}

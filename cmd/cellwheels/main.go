// Command cellwheels is the reproduction's one command line: it drives
// and logs a campaign, consolidates the logs, renders the paper's
// tables and figures, runs fleets of campaigns, and serves all of it as
// a daemon.
//
// Usage:
//
//	cellwheels run    [campaign flags] [-out dataset.json] [-csv dir]
//	                  [-geojson dir] [-progress] [-metrics manifest.json] [-pprof cpu.out]
//	cellwheels report [campaign flags] [-section id] [-metrics manifest.json]
//	cellwheels report -in dataset.json [-section id] [-metrics manifest.json]
//	cellwheels report -list
//	cellwheels fleet  -scenario fleet.json [-workers N] [-out dir] [-archive]
//	                  [-metrics manifest.json] [-push URL [-cells 0-1,3]]
//	cellwheels serve  [-addr 127.0.0.1:8080] [-data wheelsd-data] [-workers N]
//	                  [-metrics manifest.json]
//
// The campaign flags, shared by run and report, are -seed, -limit-km,
// -skip-apps, -skip-static, -skip-passive, -disable-edge,
// -disable-policy, -workers, -crowd (background UEs per operator),
// -crowd-samples (crowd UEs running speedtests) and -load-model.
//
// run executes a campaign and writes the consolidated dataset, the
// paper's data-collection phase; use -limit-km for quick runs. -progress
// prints a periodic status line to stderr, -metrics writes a
// machine-readable run manifest, with a write phase for the dataset, and
// -pprof captures a CPU profile of the whole run. All three are side
// channels: the dataset is byte-identical with or without them.
//
// report prints the paper's tables and figures in paper order. With -in
// it reads a dataset written by run; without it, it runs the campaign
// the campaign flags describe and prints its summary first, and, with a
// crowd, the measured Ookla table (Table 3 with a simulated crowd
// column) last. -section prints one section instead; -list prints the
// section ids. -in cannot be combined with campaign flags. -metrics
// writes a manifest: the load phase with -in or the campaign's phases
// without, and a report phase that times the render, of one section or
// of the whole report. The report is the same with or without it.
//
// fleet runs a fleet scenario: a sweep grid over config fields times a
// replicate count, as one deterministic job reduced to cross-replicate
// statistics per sweep cell. The report is printed and written, with the
// fleet manifest, into -out; both are byte-identical for any -workers.
// -archive keeps every run's dataset under <out>/runs/; a scenario's own
// relative archive_dir resolves against the scenario file's directory.
// A failed or panicking run is recorded in the manifest, its siblings
// complete, and fleet exits 1. -push runs a fleetsync worker instead: it
// runs its -cells subset of the sweep (default all) and pushes each
// finished run to the collector at URL, a serve collect job, which
// writes the same report and manifest a single-process run would. A
// worker fingerprints the scenario file (sha256) and the collect job
// pins the same hash.
//
// serve is the daemon: it runs campaign, fleet and collect jobs behind
// an HTTP/JSON API (package internal/serve):
//
//	POST /v1/jobs                          submit a job (campaign, fleet, or collect)
//	GET  /v1/jobs                          list jobs in submission order
//	GET  /v1/jobs/{id}                     one job's status and artifact list
//	GET  /v1/jobs/{id}/progress[?follow=1] live obs counters (NDJSON stream with follow)
//	GET  /v1/jobs/{id}/artifacts/{name}    download one artifact
//	GET  /v1/metrics                       the daemon's own counters and queue gauges, live
//	     /fleetsync/v1/...                 the fleetsync protocol, while a collect job is live
//
// Jobs are content-addressed, so re-submitting is idempotent, and every
// artifact is byte-identical to the equivalent run or fleet invocation.
// A campaign job whose config an earlier job already ran copies that
// run's dataset and report instead of running it again.
// The bound address is written to <data>/wheelsd-addr.txt once the
// listener is live, so scripts can pass -addr :0 and wait for the file.
// SIGINT/SIGTERM drains: accepted jobs run to completion and a live
// collect job finalizes with the runs that arrived, then serve exits.
//
// Usage errors exit 2, failures 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/nuwins/cellwheels"
	"github.com/nuwins/cellwheels/internal/obs"
)

// subcommands maps each subcommand name to its entry point, which takes
// the arguments after the name and returns the exit code.
var subcommands = map[string]func(args []string) int{
	"run":    runCmd,
	"report": reportCmd,
	"fleet":  fleetCmd,
	"serve":  serveCmd,
}

func main() { os.Exit(realMain(os.Args[1:])) }

func realMain(args []string) int {
	if len(args) > 0 {
		if cmd, ok := subcommands[args[0]]; ok {
			return cmd(args[1:])
		}
		fmt.Fprintf(os.Stderr, "cellwheels: unknown subcommand %q\n", args[0])
	}
	fmt.Fprintln(os.Stderr, "usage: cellwheels run|report|fleet|serve [flags] (cellwheels <subcommand> -h lists its flags)")
	return 2
}

// campaignFlags registers the campaign flags run and report share on fs
// and returns the Config that fs.Parse fills in.
func campaignFlags(fs *flag.FlagSet) *cellwheels.Config {
	cfg := new(cellwheels.Config)
	fs.Int64Var(&cfg.Seed, "seed", 1, "campaign seed (same seed, same dataset)")
	fs.Float64Var(&cfg.LimitKm, "limit-km", 0, "truncate the drive after this many km (0 = full route)")
	fs.BoolVar(&cfg.SkipApps, "skip-apps", false, "skip the four application workloads")
	fs.BoolVar(&cfg.SkipStatic, "skip-static", false, "skip per-city static baselines")
	fs.BoolVar(&cfg.SkipPassive, "skip-passive", false, "skip the passive handover loggers")
	fs.BoolVar(&cfg.DisableEdge, "disable-edge", false, "remove Wavelength edge servers (ablation)")
	fs.BoolVar(&cfg.DisablePolicy, "disable-policy", false, "always serve the best technology (ablation)")
	fs.IntVar(&cfg.Workers, "workers", 0, "concurrent operator lanes (0 = GOMAXPROCS); output is identical for any value")
	fs.IntVar(&cfg.CrowdSize, "crowd", 0, "background UEs per operator (0 = no crowd)")
	fs.IntVar(&cfg.CrowdSamples, "crowd-samples", 0, "crowd UEs running speedtest measurements (0 = 120 when a crowd is enabled)")
	fs.StringVar(&cfg.LoadModel, "load-model", "", "sector-load backend the handsets see: standin (default) or demand (crowd-driven)")
	return cfg
}

// fail reports a failure on stderr and returns exit code 1. The line
// starts "cellwheels: " once: the facade's errors carry that prefix
// already, and any other error gets it here.
func fail(err error) int {
	msg := err.Error()
	if !strings.HasPrefix(msg, "cellwheels: ") {
		msg = "cellwheels: " + msg
	}
	fmt.Fprintln(os.Stderr, msg)
	return 1
}

// writeMetrics writes rec's obs manifest to path, if one was asked for.
func writeMetrics(rec *obs.Recorder, path string) error {
	if path == "" {
		return nil
	}
	if err := rec.WriteManifestFile(path); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "obs manifest written to %s\n", path)
	return nil
}

// usageError reports a flag combination a subcommand rejects and
// returns exit code 2.
func usageError(msg string) int {
	fmt.Fprintln(os.Stderr, "cellwheels:", msg)
	return 2
}

// Command bench is the cellwheels benchmark. It runs one of four
// workloads, checks that the workload's outputs are correct, and prints
// every end-to-end metric by name with its unit; a traced run prints the
// per-layer metrics instead. The last line of its output is a JSON object
// with the keys correct, attempted, failed and metrics.
//
// Run it from the root of the repository:
//
//	bash bench/run.sh -workload campaign-full -seed 1 -seconds 10
//	bash bench/run.sh -workload serve -seed 1 -trace 1 -spans .bench_build/serve.json
//	bash bench/run.sh -compare runs/parent runs/change
//
// README.md in this directory describes the workloads and the metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// header is the first line of every run's output, so that saved outputs
// can be compared later with -compare.
type header struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Seconds  float64   `json:"seconds"`
	Trace    int       `json:"trace"`
	Host     hostFacts `json:"host"`
}

// result is the last line of every run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var (
		name    = fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
		seed    = fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds = fs.Float64("seconds", 10, "length of the timed phase; ops that start before it ends run to completion")
		trace   = fs.Int("trace", 0, "1 runs the traced layer pass and prints the per-layer metrics instead of the end-to-end ones")
		spans   = fs.String("spans", "", "file the traced run writes its spans to (default .bench_build/spans-<workload>.json)")
		compare = fs.Bool("compare", false, "compare two directories of saved outputs: -compare <dirA> <dirB>")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two directories")
			return 2
		}
		if err := compareDirs(fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	w, ok := findWorkload(*name)
	if !ok || fs.NArg() > 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "bench: want -workload one of %s and -trace 0 or 1\n", strings.Join(names, ", "))
		return 2
	}
	if *spans == "" {
		*spans = filepath.Join(".bench_build", "spans-"+w.name+".json")
	}

	start := time.Now()
	dir, err := os.MkdirTemp("", "cellwheels-bench-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	// Nothing in a healthy run comes near this; it bounds a hung daemon
	// or collector so the run still ends.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	e := &env{ctx: ctx, seed: *seed, sz: benchSizes, workers: runtime.GOMAXPROCS(0), dir: dir, log: stdout}
	printJSON(stdout, "run ", header{Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace, Host: readHost(start)})

	res, err := runWorkload(w, e, *seconds, *trace == 1, *spans)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(stdout, "metric %-28s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	printJSON(stdout, "", res)
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload runs w untraced, or traced with its spans written to
// spansPath, and prints what it measured.
func runWorkload(w workload, e *env, seconds float64, trace bool, spansPath string) (result, error) {
	var res result
	var errs []error
	if trace {
		e.tr = newTracer()
		start := time.Now()
		res.Attempted, res.Failed, errs = traced(w, e)
		wall := time.Since(start).Seconds()
		spans := e.tr.snapshot()
		printSelfTimes(e.log, spans)
		if err := writeSpans(spansPath, spans); err != nil {
			return res, err
		}
		fmt.Fprintf(e.log, "spans written to %s\n", spansPath)
		res.Metrics = perLayerMetrics(e.tr, wall)
	} else {
		m, err := measure(w, e, seconds)
		if err != nil {
			return res, err
		}
		peak, err := peakRSSMB()
		if err != nil {
			return res, err
		}
		printMeasurement(e.log, m)
		res.Attempted, res.Failed, errs = m.attempted, m.failed, m.errs
		res.Metrics = endToEndMetrics(m, peak)
	}
	for _, err := range errs {
		fmt.Fprintln(e.log, "failed:", err)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// printMeasurement writes the samples behind the end-to-end metrics: the
// set-up times, and the op latency's median and its highest percentile
// with at least ten samples beyond it.
func printMeasurement(w io.Writer, m measurement) {
	fmt.Fprintf(w, "setup n=%d median %.4f s, each %s\n", len(m.setup), median(m.setup), formatSeconds(m.setup))
	q := tailQuantile(len(m.latency))
	fmt.Fprintf(w, "op n=%d p50 %.4f s", len(m.latency), median(m.latency))
	if q > 0.5 {
		fmt.Fprintf(w, ", p%g %.4f s", 100*q, quantile(m.latency, q))
	}
	fmt.Fprintf(w, " (timed phase %.2f s wall, %.2f s cpu; %d of %d ops failed)\n", m.wall, m.cpu, m.failed, m.attempted)
}

func formatSeconds(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func printJSON(w io.Writer, prefix string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // every value printed is plain data
	}
	fmt.Fprintf(w, "%s%s\n", prefix, data)
}

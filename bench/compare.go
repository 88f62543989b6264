package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// specMetric is an end-to-end metric as BENCHMARK.json declares it.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// spec is the part of BENCHMARK.json the comparison reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// readSpec reads BENCHMARK.json from the working directory or the
// nearest directory above it.
func readSpec() (spec, error) {
	dir, err := os.Getwd()
	if err != nil {
		return spec{}, err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			var s spec
			if err := json.Unmarshal(data, &s); err != nil {
				return spec{}, fmt.Errorf("BENCHMARK.json: %w", err)
			}
			return s, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return spec{}, errors.New("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

// setupFloor is the smallest set-up regression, in seconds, that counts:
// a set-up of a fraction of a second may grow by this much before its
// relative bound applies.
const setupFloor = 0.25

// allowed is how much worse than base a metric may get.
func allowed(m specMetric, base float64) float64 {
	a := m.Bound * base
	if m.Name == "setup_s" {
		a = max(a, setupFloor)
	}
	return a
}

// verdict labels the change between two sets of runs of one metric on
// one workload. A difference counts only against the base set's own
// spread: "better" needs the change to win nine of ten pairs by more
// than the distance between the base's quartiles; "worse" needs its
// median to be worse by more than the bound; when the base's spread is
// itself wider than the bound, the comparison is "unresolved" unless
// every change run beats every base run.
func verdict(m specMetric, base, change []float64) string {
	sign := 1.0 // positive means worse
	if m.Better == "higher" {
		sign = -1
	}
	mb, mc := median(base), median(change)
	q1, q3 := quartiles(base)
	spread := q3 - q1
	limit := allowed(m, mb)
	wins, pairs := 0, min(len(base), len(change))
	for i := 0; i < pairs; i++ {
		if sign*(change[i]-base[i]) < 0 {
			wins++
		}
	}
	allBetter := true
	for _, b := range base {
		for _, c := range change {
			if sign*(c-b) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case pairs > 0 && 10*wins >= 9*pairs && sign*(mc-mb) < -spread:
		return "better"
	case spread > limit && allBetter:
		return "better"
	case spread > limit:
		return "unresolved"
	case sign*(mc-mb) > limit:
		return "worse"
	default:
		return "within bound"
	}
}

// savedRun is one untraced run's output, as saved to a file.
type savedRun struct {
	header header
	result result
}

// readRuns reads the saved outputs of untraced runs in dir, in file-name
// order. Files that do not start with a run header, such as saved
// standard error, are skipped.
func readRuns(dir string) ([]savedRun, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var runs []savedRun
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		r, ok, err := readRun(filepath.Join(dir, ent.Name()))
		if err != nil {
			return nil, err
		}
		if ok && r.header.Trace == 0 {
			runs = append(runs, r)
		}
	}
	return runs, nil
}

// readRun parses one saved output; ok is false when it has no header.
func readRun(path string) (r savedRun, ok bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return r, false, err
	}
	h, ok := strings.CutPrefix(string(data), "run ")
	if !ok {
		return r, false, nil
	}
	lines := strings.Split(strings.TrimSpace(h), "\n")
	if err := json.Unmarshal([]byte(lines[0]), &r.header); err != nil {
		return r, false, fmt.Errorf("%s: header: %w", path, err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r.result); err != nil {
		return r, false, fmt.Errorf("%s: no result line (did the run fail?): %w", path, err)
	}
	return r, true, nil
}

// compareDirs prints, for each workload and end-to-end metric, the median
// and quartiles of both directories' runs and the verdict.
func compareDirs(dirA, dirB string, w io.Writer) error {
	s, err := readSpec()
	if err != nil {
		return err
	}
	a, err := readRuns(dirA)
	if err != nil {
		return err
	}
	b, err := readRuns(dirB)
	if err != nil {
		return err
	}
	byWorkload := func(runs []savedRun) map[string][]savedRun {
		out := map[string][]savedRun{}
		for _, r := range runs {
			out[r.header.Workload] = append(out[r.header.Workload], r)
		}
		return out
	}
	wa, wb := byWorkload(a), byWorkload(b)
	var hosts []string
	for _, r := range append(a, b...) {
		h := fmt.Sprintf("%s, %d CPUs, GOMAXPROCS %d, %s, kernel %s", r.header.Host.CPUModel, r.header.Host.NumCPU, r.header.Host.GOMAXPROCS, r.header.Host.GoVersion, r.header.Host.Kernel)
		if !slices.Contains(hosts, h) {
			hosts = append(hosts, h)
		}
	}
	sort.Strings(hosts)
	for _, h := range hosts {
		fmt.Fprintf(w, "host: %s\n", h)
	}
	fmt.Fprintf(w, "%-14s %-12s %-30s %-30s %8s  %s\n", "workload", "metric", "A median [q1 q3] n", "B median [q1 q3] n", "B vs A", "verdict")
	for _, wl := range s.Workloads {
		ra, rb := wa[wl.Name], wb[wl.Name]
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(w, "%-14s (runs: %d in A, %d in B)\n", wl.Name, len(ra), len(rb))
			continue
		}
		for _, m := range s.EndToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-14s %-12s (not reported)\n", wl.Name, m.Name)
				continue
			}
			ma, mb := median(va), median(vb)
			fmt.Fprintf(w, "%-14s %-12s %-30s %-30s %+7.1f%%  %s\n", wl.Name, m.Name,
				describe(va, m.Unit), describe(vb, m.Unit), 100*(mb-ma)/ma, verdict(m, va, vb))
		}
		fa, fb := failures(ra), failures(rb)
		fmt.Fprintf(w, "%-14s %-12s A %d of %d ops failed, B %d of %d\n", wl.Name, "failed", fa[0], fa[1], fb[0], fb[1])
	}
	return nil
}

func values(runs []savedRun, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.result.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// failures sums failed and attempted ops.
func failures(runs []savedRun) [2]int {
	var f [2]int
	for _, r := range runs {
		f[0] += r.result.Failed
		f[1] += r.result.Attempted
	}
	return f
}

func describe(xs []float64, unit string) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g %.4g] %s n=%d", median(xs), q1, q3, unit, len(xs))
}

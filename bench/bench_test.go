package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// testSizes shrink every workload so the whole file runs in seconds: a
// 15 km campaign, a fleet of two 5 km runs, 5 km serve jobs.
var testSizes = sizes{fullKm: 15, analysisKm: 15, fleetKm: 5, fleetReplicates: 1, serveKm: 5, warmupKm: 2}

func testEnv(t *testing.T) *env {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	t.Cleanup(cancel)
	return &env{ctx: ctx, seed: 1, sz: testSizes, workers: 2, dir: t.TempDir(), log: io.Discard}
}

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1, 0.5}, {19, 0.5}, {20, 0.5}, {39, 0.5}, {40, 0.75}, {99, 0.75}, {100, 0.9}, {999, 0.9}, {1000, 0.99}} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestVerdict(t *testing.T) {
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	noisy := []float64{1.0, 1.5, 0.7, 1.3, 0.8}
	setup := specMetric{Name: "setup_s", Better: "lower", Bound: 0.1}
	latency := specMetric{Name: "op_p50_s", Better: "lower", Bound: 0.1}
	rate := specMetric{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	for _, c := range []struct {
		name         string
		m            specMetric
		base, change []float64
		want         string
	}{
		{"setup +20% of 1 s is inside the 0.25 s floor", setup, steady, scaled(steady, 1.2), "within bound"},
		{"setup +30% of 1 s is past the floor", setup, steady, scaled(steady, 1.3), "worse"},
		{"setup +20% of 10 s is past its 10% bound", setup, scaled(steady, 10), scaled(steady, 12), "worse"},
		{"latency +5%", latency, steady, scaled(steady, 1.05), "within bound"},
		{"latency +15%", latency, steady, scaled(steady, 1.15), "worse"},
		{"latency -15%", latency, steady, scaled(steady, 0.85), "better"},
		{"rate -15% is worse when higher is better", rate, steady, scaled(steady, 0.85), "worse"},
		{"rate +15% is better when higher is better", rate, steady, scaled(steady, 1.15), "better"},
		{"spread wider than the bound", latency, noisy, scaled(noisy, 1.02), "unresolved"},
		{"every change run beats every noisy base run", latency, noisy, scaled(steady, 0.5), "better"},
	} {
		if got := verdict(c.m, c.base, c.change); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// A root of 100 ns with two overlapping children covering 20..70 and
	// a grandchild inside the second child.
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 20, End: 50, Parent: 0},
		{Name: "b", Start: 40, End: 70, Parent: 0},
		{Name: "c", Start: 45, End: 55, Parent: 2},
		{Name: "open", Start: 80, End: -1, Parent: 0},
	}
	got := selfTimes(spans)
	for name, want := range map[string]float64{"root": 50, "a": 30, "b": 20, "c": 10} {
		if lt := got[name]; lt == nil || math.Abs(lt.Self*1e9-want) > 1e-6 {
			t.Errorf("self time of %s = %v, want %g ns", name, lt, want)
		}
	}
	if _, ok := got["open"]; ok {
		t.Error("an unclosed span was counted")
	}
}

func TestComparableMasksOnlyFigure1Strips(t *testing.T) {
	report := "Figure 1: coverage, passive handover-logger vs active XCAL\n" +
		"legend: L=LTE A=LTE-A l=5G-low m=5G-mid W=5G-mmWave .=no data\n" +
		"Verizon  passive [LA..] 5G=0%\n" +
		"T-Mobile active  [mW..] 5G=100%\n" +
		"Figure 2: coverage share [by tech] 5G=12%\n"
	want := "Figure 1: coverage, passive handover-logger vs active XCAL\n" +
		"legend: L=LTE A=LTE-A l=5G-low m=5G-mid W=5G-mmWave .=no data\n" +
		"Verizon  passive [not compared]\n" +
		"T-Mobile active  [not compared]\n" +
		"Figure 2: coverage share [by tech] 5G=12%\n"
	if got := comparable(report); got != want {
		t.Errorf("comparable:\n%s\nwant:\n%s", got, want)
	}
}

func TestFullRouteSeed(t *testing.T) {
	seen := map[int64]bool{}
	for s := int64(1); s <= 10; s++ {
		seen[fullRouteSeed(s)] = true
		if fullRouteSeed(s) == 5 {
			t.Errorf("seed %d maps to full-route seed 5", s)
		}
	}
	if len(seen) != 10 {
		t.Errorf("seeds 1..10 map to %d distinct full-route seeds, want 10", len(seen))
	}
	if fullRouteSeed(-3) <= 0 {
		t.Error("negative seeds must map into the list")
	}
}

// TestSpecMatchesCode checks BENCHMARK.json against the names and units
// the code reports.
func TestSpecMatchesCode(t *testing.T) {
	s, err := readSpec()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	var code []string
	for _, w := range workloads {
		code = append(code, w.name)
	}
	if strings.Join(names, ",") != strings.Join(code, ",") {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, code)
	}
	same := func(kind string, spec []specMetric, defs []metricDef) {
		if len(spec) != len(defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, code %d", kind, len(spec), len(defs))
			return
		}
		for i, d := range defs {
			if spec[i].Name != d.name || spec[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %s %s, code %s %s", kind, i, spec[i].Name, spec[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", s.EndToEnd, endToEnd)
	same("per_layer", s.PerLayer, perLayer())
}

// TestWorkloads runs every workload at test sizes, untraced and traced,
// and checks that each passes its correctness gate and reports every
// metric BENCHMARK.json declares, with its unit.
func TestWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			e := testEnv(t)
			res, err := runWorkload(w, e, 0.01, false, "")
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, endToEnd, true)

			e = testEnv(t)
			spans := filepath.Join(t.TempDir(), "spans.json")
			res, err = runWorkload(w, e, 0.01, true, spans)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, perLayer(), false)
			if st, err := os.Stat(spans); err != nil || st.Size() == 0 {
				t.Errorf("span file: %v", err)
			}
		})
	}
}

func checkResult(t *testing.T, res result, defs []metricDef, positive bool) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", d.name)
		case m.Unit != d.unit:
			t.Errorf("metric %s in %s, want %s", d.name, m.Unit, d.unit)
		case positive && !(m.Value > 0):
			t.Errorf("metric %s = %g, want > 0", d.name, m.Value)
		}
	}
}

// TestCompareReadsSavedRuns saves run outputs the way a shell redirect
// would and compares two directories of them.
func TestCompareReadsSavedRuns(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir()}
	for k, dir := range dirs {
		for i := 0; i < 3; i++ {
			var out bytes.Buffer
			printJSON(&out, "run ", header{Workload: "analysis", Seed: int64(i + 1), Seconds: 10})
			fmt.Fprintln(&out, "setup n=3 ...")
			printJSON(&out, "", result{Correct: true, Attempted: 50, Metrics: map[string]metric{
				"setup_s":     {2 + 0.01*float64(i), "s"},
				"op_p50_s":    {0.2 * (1 + 0.3*float64(k)), "s"},
				"cpu_s":       {0.25, "s"},
				"peak_rss_mb": {120, "MB"},
			}})
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("analysis-%d.out", i)), out.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		// Saved standard error sits beside the outputs and is skipped.
		if err := os.WriteFile(filepath.Join(dir, "analysis-0.err"), []byte("warning\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	if err := compareDirs(dirs[0], dirs[1], &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"analysis       op_p50_s", "worse", "analysis       setup_s", "within bound", "campaign-full  (runs: 0 in A, 0 in B)"} {
		if !strings.Contains(text, want) {
			t.Errorf("compare output lacks %q:\n%s", want, text)
		}
	}
}

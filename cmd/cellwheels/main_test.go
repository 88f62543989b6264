package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/nuwins/cellwheels"
	"github.com/nuwins/cellwheels/internal/obs"
)

// capture redirects *f (os.Stdout or os.Stderr) into a pipe while fn
// runs and returns what was written. The pipe is drained concurrently,
// so output larger than the pipe buffer cannot block fn.
func capture(t *testing.T, f **os.File, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	read := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		read <- string(data)
	}()
	old := *f
	*f = w
	fn()
	*f = old
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	out := <-read
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"drive"},
		{"-seed", "1"},
		{"report", "-in", "x", "-seed", "1"},
		{"report", "-in", "x", "-crowd", "10"},
		{"run", "-no-such-flag"},
		{"run", "-raw", "x"}, // the raw .drm archive is retired
	} {
		var code int
		capture(t, &os.Stderr, func() { code = realMain(args) })
		if code != 2 {
			t.Errorf("cellwheels %q: exit %d, want 2", args, code)
		}
	}
}

// TestReportCampaignMode pins report without -in: the summary, a blank
// line, the full report and, with a crowd, the measured Ookla table,
// with -crowd setting CrowdSize and -crowd-samples CrowdSamples as in
// run.
func TestReportCampaignMode(t *testing.T) {
	for _, tc := range []struct {
		args []string
		cfg  cellwheels.Config
	}{
		{
			[]string{"-seed", "3", "-limit-km", "8", "-skip-passive"},
			cellwheels.Config{Seed: 3, LimitKm: 8, SkipPassive: true},
		},
		{
			[]string{"-seed", "4", "-limit-km", "6", "-skip-apps", "-crowd", "200", "-crowd-samples", "3"},
			cellwheels.Config{Seed: 4, LimitKm: 6, SkipApps: true, CrowdSize: 200, CrowdSamples: 3},
		},
	} {
		study, err := cellwheels.Run(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := study.Summary().String() + "\n" + study.Report()
		if tc.cfg.CrowdSize > 0 {
			want += study.MeasuredOokla(tc.cfg.CrowdSamples) + "\n"
		}
		var code int
		got := capture(t, &os.Stdout, func() {
			capture(t, &os.Stderr, func() { code = realMain(append([]string{"report"}, tc.args...)) })
		})
		if code != 0 {
			t.Fatalf("report %q: exit %d", tc.args, code)
		}
		if got != want {
			t.Errorf("report %q stdout differs from Summary + Report:\n--- got ---\n%s--- want ---\n%s", tc.args, got, want)
		}
	}
}

// TestRunThenReport drives the pipeline through the command: run writes
// a dataset, report -in renders it as Study.Report and Study.Section do,
// and report -list prints SectionIDs.
func TestRunThenReport(t *testing.T) {
	dataset := filepath.Join(t.TempDir(), "d.json")
	var code int
	capture(t, &os.Stderr, func() {
		code = realMain([]string{"run", "-seed", "2", "-limit-km", "8", "-skip-passive", "-out", dataset})
	})
	if code != 0 {
		t.Fatalf("run: exit %d", code)
	}
	f, err := os.Open(dataset)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	study, err := cellwheels.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	fig8, err := study.Section("fig8")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-in", dataset}, study.Report()},
		{[]string{"-in", dataset, "-section", "fig8"}, fig8},
		{[]string{"-list"}, strings.Join(cellwheels.SectionIDs(), "\n") + "\n"},
	} {
		got := capture(t, &os.Stdout, func() { code = realMain(append([]string{"report"}, tc.args...)) })
		if code != 0 || got != tc.want {
			t.Errorf("report %q: exit %d, stdout differs from the library's (%d bytes, want %d)", tc.args, code, len(got), len(tc.want))
		}
	}
}

// TestErrorLines pins the exact stderr line of a failure and of a usage
// error: "cellwheels: " once, although the facade's errors carry the
// prefix already.
func TestErrorLines(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{[]string{"report", "-in", bad}, 1, "cellwheels: dataset: decode: unexpected EOF\n"},
		{[]string{"report", "-in", bad, "-seed", "1"}, 2, "cellwheels: -seed is a campaign flag; -in reads a dataset instead of running one\n"},
	} {
		var code int
		got := capture(t, &os.Stderr, func() { code = realMain(tc.args) })
		if code != tc.code || got != tc.stderr {
			t.Errorf("cellwheels %q: exit %d, stderr %q; want exit %d, stderr %q", tc.args, code, got, tc.code, tc.stderr)
		}
	}
}

// TestMetricsPhases checks the phases in the manifests: run -metrics
// records a write phase; report -metrics a report phase, after a load
// phase with -in and after the campaign's phases without it, for the
// whole report and for one -section alike; each phase has its heap
// gauge, and report prints the same bytes with and without -metrics.
func TestMetricsPhases(t *testing.T) {
	dir := t.TempDir()
	dataset := filepath.Join(dir, "d.json")
	runMan := filepath.Join(dir, "run.json")
	var code int
	capture(t, &os.Stderr, func() {
		code = realMain([]string{"run", "-seed", "2", "-limit-km", "8", "-skip-passive", "-out", dataset, "-metrics", runMan})
	})
	if code != 0 {
		t.Fatalf("run: exit %d", code)
	}
	report := func(args ...string) string {
		var out string
		capture(t, &os.Stderr, func() {
			out = capture(t, &os.Stdout, func() { code = realMain(append([]string{"report"}, args...)) })
		})
		if code != 0 {
			t.Fatalf("report %q: exit %d", args, code)
		}
		return out
	}
	type manifest struct {
		path   string
		phases []string
	}
	manifests := []manifest{{runMan, []string{"run", "write"}}}
	for i, args := range [][]string{
		{"-in", dataset},
		{"-in", dataset, "-section", "table1"},
		{"-seed", "2", "-limit-km", "8", "-skip-passive", "-section", "table1"},
	} {
		man := filepath.Join(dir, fmt.Sprintf("report-%d.json", i))
		if plain, metered := report(args...), report(append(args, "-metrics", man)...); plain != metered {
			t.Errorf("report %q -metrics prints a different report", args)
		}
		phases := []string{"load", "report"}
		if args[0] != "-in" {
			phases = []string{"run", "merge", "report"}
		}
		manifests = append(manifests, manifest{man, phases})
	}
	for _, tc := range manifests {
		data, err := os.ReadFile(tc.path)
		if err != nil {
			t.Fatal(err)
		}
		var man obs.Manifest
		if err := json.Unmarshal(data, &man); err != nil {
			t.Fatal(err)
		}
		for _, p := range tc.phases {
			if _, ok := man.PhaseMS[p]; !ok {
				t.Errorf("%s: no %s phase in %v", filepath.Base(tc.path), p, man.PhaseMS)
			}
			for _, g := range []string{"heap_mb", "alloc_mb"} {
				if _, ok := man.Gauges["mem/"+p+"/"+g]; !ok {
					t.Errorf("%s: no mem/%s/%s gauge", filepath.Base(tc.path), p, g)
				}
			}
			// The runtime counts a small object once its span leaves the
			// cache, so only a phase that allocates a lot reads above 0.
			if got := man.Gauges["mem/"+p+"/alloc_mb"]; p == "report" && filepath.Base(tc.path) == "report-0.json" && got <= 0 {
				t.Errorf("%s: mem/report/alloc_mb = %v, want what the full report allocated", filepath.Base(tc.path), got)
			}
		}
	}
}

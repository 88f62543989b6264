package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
)

func rawVals(vals ...string) []json.RawMessage {
	out := make([]json.RawMessage, len(vals))
	for i, v := range vals {
		out[i] = json.RawMessage(v)
	}
	return out
}

func TestExpandEmpty(t *testing.T) {
	cells, err := Expand(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || cells[0].Key != "" || len(cells[0].Overrides) != 0 {
		t.Fatalf("empty sweep = %+v, want single base cell", cells)
	}
	if got := cells[0].Label(); got != "(base)" {
		t.Errorf("base label = %q", got)
	}
}

func TestExpandCartesian(t *testing.T) {
	cells, err := Expand([]Axis{
		{Field: "a", Values: rawVals("1", "2")},
		{Field: "b", Values: rawVals("true", "false")},
	})
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, c := range cells {
		keys = append(keys, c.Key)
	}
	want := []string{"a=1|b=true", "a=1|b=false", "a=2|b=true", "a=2|b=false"}
	if strings.Join(keys, " ") != strings.Join(want, " ") {
		t.Errorf("cells = %v, want %v (first axis slowest)", keys, want)
	}
}

func TestExpandCanonicalizesValues(t *testing.T) {
	a, err := Expand([]Axis{{Field: "x", Values: rawVals(`{"k": 1}`)}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Expand([]Axis{{Field: "x", Values: rawVals(`{ "k":1 }`)}})
	if err != nil {
		t.Fatal(err)
	}
	if a[0].Key != b[0].Key {
		t.Errorf("equal values spaced differently produce keys %q vs %q", a[0].Key, b[0].Key)
	}
}

func TestExpandErrors(t *testing.T) {
	cases := []struct {
		name string
		axes []Axis
	}{
		{"empty field", []Axis{{Field: "", Values: rawVals("1")}}},
		{"no values", []Axis{{Field: "a"}}},
		{"duplicate field", []Axis{{Field: "a", Values: rawVals("1")}, {Field: "a", Values: rawVals("2")}}},
		{"bad json", []Axis{{Field: "a", Values: rawVals("{")}}},
	}
	for _, tc := range cases {
		if _, err := Expand(tc.axes); err == nil {
			t.Errorf("%s: Expand accepted a malformed sweep", tc.name)
		}
	}
}

// TestRunSeedPositional pins the seed-derivation contract: seeds are a
// pure function of (master, cell, replicate), distinct across runs, and
// unaffected by everything else (there is nothing else to pass).
func TestRunSeedPositional(t *testing.T) {
	if RunSeed(7, "a=1", 0) != RunSeed(7, "a=1", 0) {
		t.Error("RunSeed is not deterministic")
	}
	seen := map[int64]string{}
	for _, cell := range []string{"", "a=1", "a=2"} {
		for rep := 0; rep < 3; rep++ {
			s := RunSeed(7, cell, rep)
			id := fmt.Sprintf("%s/%d", cell, rep)
			if prev, dup := seen[s]; dup {
				t.Errorf("seed collision between %s and %s", prev, id)
			}
			seen[s] = id
		}
	}
	if RunSeed(7, "a=1", 0) == RunSeed(8, "a=1", 0) {
		t.Error("master seed does not reach the derived seed")
	}
}

// stubRun derives metrics purely from the spec, so fleets over it are
// fully deterministic and cheap.
func stubRun(spec RunSpec) (RunResult, error) {
	return RunResult{Metrics: Metrics{
		"m":    float64(spec.Seed%1000) + float64(spec.Replicate),
		"nan":  math.NaN(),
		"zeta": 1, // name sorting: not in MetricOrder, must come last
	}}, nil
}

func fleetOutputs(t *testing.T, cfg Config) (string, []byte) {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Manifest.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return res.Report(), buf.Bytes()
}

// TestRunWorkerInvariant is the engine-level determinism contract: the
// same scenario produces byte-identical report and manifest for workers
// 1, 2, and 4 (run under -race in CI).
func TestRunWorkerInvariant(t *testing.T) {
	base := Config{
		MasterSeed:  3,
		Replicates:  3,
		Sweep:       []Axis{{Field: "edge", Values: rawVals("false", "true")}},
		Run:         stubRun,
		MetricOrder: []string{"m"},
	}
	cfg1 := base
	cfg1.Workers = 1
	report1, manifest1 := fleetOutputs(t, cfg1)
	for _, w := range []int{2, 4} {
		cfg := base
		cfg.Workers = w
		report, manifest := fleetOutputs(t, cfg)
		if report != report1 {
			t.Errorf("report differs between workers=1 and workers=%d:\n%s\nvs\n%s", w, report1, report)
		}
		if !bytes.Equal(manifest, manifest1) {
			t.Errorf("manifest differs between workers=1 and workers=%d", w)
		}
	}
	if !strings.Contains(report1, "zeta") {
		t.Error("metric outside MetricOrder missing from report")
	}
	if strings.Index(report1, "m ") > strings.Index(report1, "zeta") {
		t.Error("MetricOrder not respected: zeta printed before m")
	}
}

// TestRunPanicContainment pins the failure contract: a panicking run
// becomes a manifest failure entry with the panic message, its replicate
// slot is excluded from the statistics, and every sibling run completes.
func TestRunPanicContainment(t *testing.T) {
	res, err := Run(Config{
		MasterSeed: 5,
		Replicates: 3,
		Workers:    2,
		Run:        stubRun,
		Start: func(spec RunSpec) {
			if spec.Index == 1 {
				panic("injected failure")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	man := res.Manifest
	if man.Failed != 1 {
		t.Fatalf("Failed = %d, want 1", man.Failed)
	}
	if len(man.Runs) != 3 {
		t.Fatalf("manifest has %d runs, want 3", len(man.Runs))
	}
	for _, rec := range man.Runs {
		if rec.Index == 1 {
			if rec.Status != RunFailed || !strings.Contains(rec.Error, "injected failure") {
				t.Errorf("run 1 = %+v, want failed with the panic message", rec)
			}
		} else if rec.Status != RunOK {
			t.Errorf("sibling run %d did not complete: %+v", rec.Index, rec)
		}
	}
	if got := res.Cells[0].OK; got != 2 {
		t.Errorf("cell OK = %d, want 2 (the survivors)", got)
	}
	for _, m := range res.Cells[0].Metrics {
		if m.Name == "m" && m.N != 2 {
			t.Errorf("metric %q folded %d replicates, want 2", m.Name, m.N)
		}
		if m.Name == "nan" && m.N != 0 {
			t.Errorf("NaN metric reports N = %d, want 0", m.N)
		}
	}
}

// TestRunErrorRecorded mirrors the panic test for plain errors.
func TestRunErrorRecorded(t *testing.T) {
	res, err := Run(Config{
		Replicates: 2,
		Run: func(spec RunSpec) (RunResult, error) {
			if spec.Replicate == 1 {
				return RunResult{}, fmt.Errorf("boom %d", spec.Index)
			}
			return RunResult{Metrics: Metrics{"m": 1}, Dataset: "run-000.json"}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Manifest.Failed != 1 {
		t.Fatalf("Failed = %d, want 1", res.Manifest.Failed)
	}
	if got := res.Manifest.Runs[1].Error; got != "boom 1" {
		t.Errorf("run 1 error = %q", got)
	}
	if got := res.Manifest.Runs[0].Dataset; got != "run-000.json" {
		t.Errorf("run 0 dataset = %q, want the archive path", got)
	}
}

func TestRunNilRunFunc(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("Run accepted a nil RunFunc")
	}
}

func TestManifestRoundTrip(t *testing.T) {
	res, err := Run(Config{MasterSeed: 2, Replicates: 2, Run: stubRun})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Manifest.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got Manifest
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Schema != ManifestSchema || got.MasterSeed != 2 || len(got.Runs) != 2 {
		t.Errorf("round-tripped manifest = %+v", got)
	}
	if got.Runs[1].Seed != RunSeed(2, "", 1) {
		t.Errorf("manifest seed %d does not match RunSeed", got.Runs[1].Seed)
	}
}

// TestReportSingleCellNoFootnote checks the IQR footnote only appears
// when some metric was actually flagged against a baseline.
func TestReportSingleCellNoFootnote(t *testing.T) {
	res, err := Run(Config{Replicates: 2, Run: stubRun})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(res.Report(), "IQR disjoint") {
		t.Error("single-cell report carries the IQR footnote")
	}
}

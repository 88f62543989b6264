package cellwheels

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// facadeStudy caches one quick study for the facade tests.
var facadeStudy *Study

func quickStudy(t *testing.T) *Study {
	t.Helper()
	if facadeStudy != nil {
		return facadeStudy
	}
	s, err := Run(Config{Seed: 5, LimitKm: 60, VideoSeconds: 30, GamingSeconds: 20})
	if err != nil {
		t.Fatal(err)
	}
	facadeStudy = s
	return s
}

func TestRunAndSummary(t *testing.T) {
	s := quickStudy(t)
	sum := s.Summary()
	if sum.Tests == 0 || sum.Samples == 0 {
		t.Fatalf("empty summary: %+v", sum)
	}
	if len(sum.Carriers) != 3 {
		t.Fatalf("carriers = %d", len(sum.Carriers))
	}
	for _, c := range sum.Carriers {
		if c.DrivingDLMedianMbps <= 0 {
			t.Errorf("%s: DL median %v", c.Operator, c.DrivingDLMedianMbps)
		}
		if c.DrivingRTTMedianMS <= 0 {
			t.Errorf("%s: RTT median %v", c.Operator, c.DrivingRTTMedianMS)
		}
	}
	out := sum.String()
	for _, want := range []string{"Verizon", "T-Mobile", "AT&T", "km"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q", want)
		}
	}
}

func TestSections(t *testing.T) {
	s := quickStudy(t)
	for _, id := range SectionIDs() {
		out, err := s.Section(id)
		if err != nil {
			t.Errorf("section %s: %v", id, err)
			continue
		}
		if len(out) == 0 {
			t.Errorf("section %s empty", id)
		}
	}
	if _, err := s.Section("fig99"); err == nil {
		t.Error("unknown section accepted")
	}
}

// TestReportIsSectionsInOrder pins Report to the section list: the full
// report is every section in SectionIDs order, each followed by a blank
// line, with fig8 (an alias of fig7's scatter) rendered once.
func TestReportIsSectionsInOrder(t *testing.T) {
	s := quickStudy(t)
	var want strings.Builder
	for _, id := range SectionIDs() {
		if id == "fig8" {
			continue
		}
		out, err := s.Section(id)
		if err != nil {
			t.Fatal(err)
		}
		want.WriteString(out)
		want.WriteString("\n")
	}
	if got := s.Report(); got != want.String() {
		t.Errorf("Report differs from its sections in SectionIDs order:\n--- got ---\n%s--- want ---\n%s", got, want.String())
	}
}

func TestReportContainsEverything(t *testing.T) {
	s := quickStudy(t)
	rep := s.Report()
	for _, want := range []string{"Table 1", "Figure 16", "Table 5"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

// TestReportByteIdentical pins the determinism invariant end to end: two
// independent runs of the same config must render byte-for-byte the same
// report. Aggregation walking a map in randomized order would break this
// (float summation is order-sensitive) — exactly what the maprange lint
// rule guards against statically.
func TestReportByteIdentical(t *testing.T) {
	cfg := Config{Seed: 17, LimitKm: 30, VideoSeconds: 15, GamingSeconds: 10}
	report := func() string {
		t.Helper()
		s, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s.Report()
	}
	if a, b := report(), report(); a != b {
		t.Error("Study.Report() differs between two runs of the same config")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := quickStudy(t)
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	orig := append([]byte(nil), buf.Bytes()...)
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Summary().Tests != s.Summary().Tests {
		t.Error("round trip changed test count")
	}
	var again bytes.Buffer
	if err := back.WriteJSON(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), orig) {
		t.Error("Load then WriteJSON changed the dataset bytes")
	}
	if back.Report() != s.Report() {
		t.Error("loaded study renders a different report")
	}
	if _, err := Load(strings.NewReader("{")); err == nil {
		t.Error("bad JSON accepted")
	}
}

// TestWriteJSONFileEncodeError pins that a dataset encoding/json cannot
// encode, here a NaN in the last throughput sample, fails WriteJSONFile
// with the encoder's error and leaves neither the file nor its temp file
// behind, although the streaming encoder has written a prefix by then.
// The table is long enough to be encoded in many chunks on several
// goroutines, so the NaN is in the last chunk.
func TestWriteJSONFileEncodeError(t *testing.T) {
	var buf bytes.Buffer
	if err := quickStudy(t).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(s.db.Throughput); n < 4000 {
		t.Fatalf("%d throughput samples, want a table of many chunks", n)
	}
	s.db.Throughput[len(s.db.Throughput)-1].Mbps = math.NaN()
	dir := t.TempDir()
	const want = "dataset: encode: unsupported value: NaN"
	if err := s.WriteJSONFile(filepath.Join(dir, "dataset.json")); err == nil || err.Error() != want {
		t.Fatalf("WriteJSONFile with a NaN sample: error %v, want %q", err, want)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("WriteJSONFile left %s behind", e.Name())
	}
}

func TestWriteCSV(t *testing.T) {
	s := quickStudy(t)
	dir := t.TempDir()
	if err := s.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"throughput.csv", "rtt.csv", "handovers.csv", "appruns.csv"} {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if fi.Size() == 0 {
			t.Errorf("%s empty", name)
		}
	}
}

// TestWorkersByteIdentical is the engine's determinism contract: the same
// config produces byte-identical datasets run-over-run and for any worker
// count. Apps, static batteries, and passive loggers are all enabled so
// every lane subsystem is exercised; -race covers the lane scheduling.
func TestWorkersByteIdentical(t *testing.T) {
	jsonFor := func(workers int) []byte {
		t.Helper()
		s, err := Run(Config{Seed: 21, LimitKm: 40, VideoSeconds: 20, GamingSeconds: 15, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := s.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := jsonFor(1)
	if again := jsonFor(1); !bytes.Equal(serial, again) {
		t.Error("Workers:1 is not reproducible run-over-run")
	}
	for _, workers := range []int{2, 3} {
		if parallel := jsonFor(workers); !bytes.Equal(serial, parallel) {
			t.Errorf("Workers:%d output differs from Workers:1", workers)
		}
	}
}

// TestDatasetGolden pins the engine's output to fixed digests, so a
// change that is deterministic but different (same bytes on every run,
// other bytes than before) still fails here and not only in the bench
// module's goldens. Workers 2 runs three lanes on two slots. The crowd
// case is 2 km, inside one 8,192-tick epoch of the crowd's event wheel;
// crowd-20km has the repo benchmark's fleet-sync run shape, whose 61,278
// ticks fold the wheel's far overflow seven times and see a typical slot
// detach and re-attach about three times.
func TestDatasetGolden(t *testing.T) {
	const (
		quickDataset   = "45f69419592d3b2add765a81243821ae189ae89643ea2b94bda02f0e2e8a2370"
		quickReport    = "03d9dea4de20a39a4a9f8919ba1fc44cdd1244388d30248aa35b8c687b1b7a2d"
		crowdDataset   = "f065b6f91eb28876793d8d349fa66292c5f6ff75249e450d36ae42a7be0e3b01"
		crowdReport    = "02e3e7b0331433399192042a2685d2f16b733356f50af6922d8f250175c59ded"
		crowd20Dataset = "7cdc72ef3988cdd15aab82f29bf4667cd2bcb2f1c4284632a0729d159d93e2ee"
		crowd20Report  = "dae63e5cedbdb680a755afda5b091e32c6f54f42440f84ed4ee23ef6e9111fd7"
	)
	type golden struct {
		cfg             Config
		dataset, report string
	}
	cases := map[string]golden{
		"crowd": {crowdConfig(2), crowdDataset, crowdReport},
		"crowd-20km": {Config{Seed: 1, LimitKm: 20, SkipApps: true, CrowdSize: 10_000, LoadModel: LoadModelDemand},
			crowd20Dataset, crowd20Report},
	}
	for _, workers := range []int{1, 2, 3} {
		cfg := Config{Seed: 21, LimitKm: 40, VideoSeconds: 20, GamingSeconds: 15, Workers: workers}
		cases[fmt.Sprintf("workers=%d", workers)] = golden{cfg, quickDataset, quickReport}
	}
	digest := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			s, err := Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := s.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			if got := digest(buf.Bytes()); got != tc.dataset {
				t.Errorf("dataset sha256 = %s, want %s", got, tc.dataset)
			}
			if got := digest([]byte(s.Report())); got != tc.report {
				t.Errorf("report sha256 = %s, want %s", got, tc.report)
			}
		})
	}
}

func TestDeterminism(t *testing.T) {
	cfg := Config{Seed: 9, LimitKm: 25, SkipApps: true, SkipStatic: true, SkipPassive: true}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary().String() != b.Summary().String() {
		t.Error("same config+seed produced different summaries")
	}
}

func TestConfigKnobs(t *testing.T) {
	s, err := Run(Config{Seed: 3, LimitKm: 25, SkipApps: true, SkipStatic: true, SkipPassive: true, DisableEdge: true})
	if err != nil {
		t.Fatal(err)
	}
	sum := s.Summary()
	if sum.Tests == 0 {
		t.Fatal("no tests")
	}
	for _, c := range sum.Carriers {
		if c.VideoQoEMedian != 0 {
			t.Error("video metric with SkipApps")
		}
	}
}

func TestWriteCoverageGeoJSON(t *testing.T) {
	s := quickStudy(t)
	dir := t.TempDir()
	if err := s.WriteCoverageGeoJSON(dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	haveRoute := false
	geojson := 0
	for _, e := range entries {
		if e.Name() == "route.geojson" {
			haveRoute = true
		}
		if strings.HasSuffix(e.Name(), ".geojson") {
			geojson++
		}
	}
	if !haveRoute {
		t.Error("route.geojson missing")
	}
	// Route + at least one coverage layer per operator.
	if geojson < 4 {
		t.Errorf("only %d geojson files", geojson)
	}
	// Loaded studies cannot export coverage ground truth.
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.WriteCoverageGeoJSON(t.TempDir()); err == nil {
		t.Error("loaded study exported coverage GeoJSON")
	}
}

// TestAppSecondsBound pins MaxAppSeconds: one second past it, or a
// negative duration, fails Run and FleetConfig.Validate before anything
// runs, and a fleet sweep cell past it fails its run; the bound itself
// is valid.
// TestLimitKmBound: a negative limit_km is an error, not the full route.
func TestLimitKmBound(t *testing.T) {
	for _, km := range []float64{-1, -0.001, math.NaN()} {
		_, err := Run(Config{Seed: 1, LimitKm: km})
		if err == nil || !strings.Contains(err.Error(), "cellwheels: limit_km must be >= 0") {
			t.Errorf("Run with limit_km %v: error %v, want the limit_km bound", km, err)
		}
	}
}

func TestAppSecondsBound(t *testing.T) {
	for _, cfg := range []Config{
		{Seed: 1, VideoSeconds: MaxAppSeconds + 1},
		{Seed: 1, GamingSeconds: MaxAppSeconds + 1},
		{Seed: 1, VideoSeconds: -1},
		{Seed: 1, GamingSeconds: -1},
	} {
		if _, err := Run(cfg); err == nil {
			t.Errorf("Run accepted %+v", cfg)
		}
		if err := (FleetConfig{MasterSeed: 1, Replicates: 1, Base: cfg}).Validate(); err == nil {
			t.Errorf("FleetConfig.Validate accepted base %+v", cfg)
		}
		if _, err := RunFleet(FleetConfig{MasterSeed: 1, Replicates: 1, Base: cfg}); err == nil {
			t.Errorf("RunFleet accepted base %+v", cfg)
		}
	}
	if err := (Config{VideoSeconds: MaxAppSeconds, GamingSeconds: MaxAppSeconds}).Validate(); err != nil {
		t.Errorf("the bound itself is rejected: %v", err)
	}
	for _, field := range []string{"video_seconds", "gaming_seconds"} {
		res, err := RunFleet(FleetConfig{
			MasterSeed: 12,
			Replicates: 1,
			Base:       Config{LimitKm: 2, SkipStatic: true, SkipPassive: true},
			Sweep:      []SweepAxis{{Field: field, Values: rawJSON(fmt.Sprint(MaxAppSeconds + 1))}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed() != 1 {
			t.Errorf("%s past the bound: %d failed runs, want 1", field, res.Failed())
		}
	}
}

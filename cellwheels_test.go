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

	"github.com/nuwins/cellwheels/internal/xcal"
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
// and leaves neither the file nor its temp file behind, although the
// streaming encoder has written a prefix by then.
func TestWriteJSONFileEncodeError(t *testing.T) {
	var buf bytes.Buffer
	if err := quickStudy(t).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s.db.Throughput[len(s.db.Throughput)-1].Mbps = math.NaN()
	dir := t.TempDir()
	if err := s.WriteJSONFile(filepath.Join(dir, "dataset.json")); err == nil {
		t.Fatal("WriteJSONFile wrote a dataset with a NaN sample")
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
// module's goldens. Workers 2 runs three lanes on two slots.
func TestDatasetGolden(t *testing.T) {
	const (
		quickDataset = "45f69419592d3b2add765a81243821ae189ae89643ea2b94bda02f0e2e8a2370"
		quickReport  = "03d9dea4de20a39a4a9f8919ba1fc44cdd1244388d30248aa35b8c687b1b7a2d"
		crowdDataset = "f065b6f91eb28876793d8d349fa66292c5f6ff75249e450d36ae42a7be0e3b01"
		crowdReport  = "02e3e7b0331433399192042a2685d2f16b733356f50af6922d8f250175c59ded"
	)
	type golden struct {
		cfg             Config
		dataset, report string
	}
	cases := map[string]golden{"crowd": {crowdConfig(2), crowdDataset, crowdReport}}
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

// TestRunArchivingRaw pins the -raw archive: one .drm per test, each
// decoding and re-encoding to its own bytes, and a dataset equal to
// Run's for the same config, since the lanes archive each capture
// before normalising it.
func TestRunArchivingRaw(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Seed: 6, LimitKm: 15, SkipStatic: true, VideoSeconds: 20, GamingSeconds: 15}
	s, err := RunArchivingRaw(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if err := s.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if err := plain.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("RunArchivingRaw's dataset differs from Run's")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no raw captures archived")
	}
	drm := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".drm") {
			drm++
		}
	}
	if drm != len(entries) {
		t.Errorf("%d of %d files are .drm", drm, len(entries))
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		f, err := xcal.ReadDRM(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		var enc bytes.Buffer
		if err := f.WriteDRM(&enc); err != nil {
			t.Fatal(err)
		}
		if f.Name != e.Name() || !bytes.Equal(enc.Bytes(), data) {
			t.Errorf("%s: decodes as %q and re-encodes to different bytes", e.Name(), f.Name)
		}
	}
	// The archived count matches the study's test count.
	if got := s.Summary().Tests; got != drm {
		t.Errorf("tests = %d, archived captures = %d", got, drm)
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

package dataset

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"
	"time"

	"github.com/nuwins/cellwheels/internal/geo"
	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/unit"
)

func sampleDB() *DB {
	t0 := time.Date(2022, 8, 8, 16, 0, 0, 0, time.UTC)
	return &DB{
		Meta: Meta{Seed: 42, RouteKm: 5711, Days: 8, Start: t0,
			BytesRx: 1 * unit.GB, BytesTx: 100 * unit.MB,
			RuntimeByOp:   map[string]time.Duration{"Verizon": time.Hour},
			UniqueCells:   map[string]int{"Verizon": 3020},
			HandoverTotal: map[string]int{"Verizon": 2657},
		},
		Tests: []Test{
			{ID: 1, Kind: ThroughputDL, Op: radio.Verizon, Start: t0, End: t0.Add(30 * time.Second),
				StartOdo: 0, EndOdo: 800, Server: "ec2-ca-general", Timezone: geo.Pacific},
			{ID: 2, Kind: RTTTest, Op: radio.TMobile, Start: t0.Add(time.Minute), End: t0.Add(80 * time.Second),
				Static: true, Timezone: geo.Pacific},
		},
		Throughput: []ThroughputSample{
			{TestID: 1, Time: t0, Op: radio.Verizon, Dir: radio.Downlink, Mbps: 42.5,
				Tech: radio.NRMid, RSRP: -95, SINR: 12, MCS: 15, CC: 2, BLER: 0.05,
				SpeedMPH: 65, Odometer: 100, Timezone: geo.Pacific, Region: geo.Highway, CellID: "V-5G-mid-0001"},
			{TestID: 1, Time: t0.Add(500 * time.Millisecond), Op: radio.Verizon, Dir: radio.Downlink,
				Mbps: 3.1, Tech: radio.LTE, Static: true},
		},
		RTT: []RTTSample{
			{TestID: 2, Time: t0, Op: radio.TMobile, RTTMS: 63.5, Tech: radio.LTEA, Static: true},
			{TestID: 2, Time: t0.Add(200 * time.Millisecond), Op: radio.TMobile, Lost: true},
		},
		Handovers: []Handover{
			{TestID: 1, Time: t0.Add(time.Second), Op: radio.Verizon, DurationMS: 53,
				FromTech: radio.NRMid, ToTech: radio.LTEA, Odometer: 300},
		},
		AppRuns: []AppRun{
			{TestID: 3, Kind: AppAR, Op: radio.Verizon, Start: t0, Compressed: true,
				E2EMS: 214, OffloadFPS: 4.35, MAP: 30.1, HighSpeedFrac: 0.4, Handovers: 2},
		},
		Passive: []CoverageSample{
			{Time: t0, Op: radio.ATT, Tech: radio.LTEA, CellID: "A-LTE-A-0001", Timezone: geo.Pacific},
		},
	}
}

func TestTestKindStrings(t *testing.T) {
	if len(Kinds()) != 7 {
		t.Errorf("Kinds() = %d, want 7", len(Kinds()))
	}
	seen := map[string]bool{}
	for _, k := range Kinds() {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "TestKind(") {
			t.Errorf("kind %d has bad label %q", int(k), s)
		}
		if seen[s] {
			t.Errorf("duplicate kind label %q", s)
		}
		seen[s] = true
	}
}

func TestTestHelpers(t *testing.T) {
	db := sampleDB()
	tt := db.Tests[0]
	if got := tt.Duration(); got != 30*time.Second {
		t.Errorf("Duration = %v", got)
	}
	if got := tt.Miles(); got <= 0 || got > 1 {
		t.Errorf("Miles = %v", got)
	}
	if db.TestByID(1) == nil || db.TestByID(1).Kind != ThroughputDL {
		t.Error("TestByID(1) wrong")
	}
	if db.TestByID(99) != nil {
		t.Error("TestByID(99) should be nil")
	}
}

func TestHandoverVertical(t *testing.T) {
	h := Handover{FromTech: radio.NRMid, ToTech: radio.LTEA}
	if !h.Vertical() {
		t.Error("5G->4G not vertical")
	}
	h2 := Handover{FromTech: radio.LTE, ToTech: radio.LTEA}
	if h2.Vertical() {
		t.Error("4G->4G marked vertical")
	}
}

func TestFilters(t *testing.T) {
	db := sampleDB()
	driving := db.ThroughputWhere(func(s ThroughputSample) bool { return !s.Static })
	if len(driving) != 1 || driving[0].Mbps != 42.5 {
		t.Errorf("driving filter = %v", driving)
	}
	tests := db.TestsWhere(func(tt Test) bool { return tt.Static })
	if len(tests) != 1 || tests[0].ID != 2 {
		t.Errorf("static tests = %v", tests)
	}
	hos := db.HandoversWhere(func(h Handover) bool { return h.Vertical() })
	if len(hos) != 1 {
		t.Errorf("ho filter = %v", hos)
	}
	runs := db.AppRunsWhere(func(r AppRun) bool { return r.Kind == AppAR })
	if len(runs) != 1 {
		t.Errorf("app filter = %v", runs)
	}
}

func TestValueExtraction(t *testing.T) {
	db := sampleDB()
	ms := db.MbpsWhere(func(*ThroughputSample) bool { return true })
	if len(ms) != 2 || ms[0] != 42.5 || ms[1] != 3.1 {
		t.Errorf("MbpsWhere(all) = %v", ms)
	}
	if ms := db.MbpsWhere(func(s *ThroughputSample) bool { return s.Static }); len(ms) != 1 || ms[0] != 3.1 {
		t.Errorf("MbpsWhere(static) = %v", ms)
	}
	rs := RTTValues(db.RTT)
	if len(rs) != 1 || rs[0] != 63.5 {
		t.Errorf("RTTValues = %v (lost samples must be excluded)", rs)
	}
	if rs := db.RTTValuesWhere(func(*RTTSample) bool { return true }); len(rs) != 1 || rs[0] != 63.5 {
		t.Errorf("RTTValuesWhere = %v (lost samples must be excluded)", rs)
	}
	if rs := db.RTTValuesWhere(func(s *RTTSample) bool { return !s.Static }); len(rs) != 0 {
		t.Errorf("RTTValuesWhere(driving) = %v, want none", rs)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	db := sampleDB()
	var buf bytes.Buffer
	if err := db.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != db.String() {
		t.Errorf("round trip summary: %v vs %v", back, db)
	}
	if len(back.Throughput) != 2 || back.Throughput[0].Mbps != 42.5 {
		t.Errorf("throughput lost in round trip: %+v", back.Throughput)
	}
	if back.Meta.Seed != 42 || back.Meta.UniqueCells["Verizon"] != 3020 {
		t.Errorf("meta lost: %+v", back.Meta)
	}
	if !back.Tests[0].Start.Equal(db.Tests[0].Start) {
		t.Error("timestamps shifted")
	}
}

func TestReadJSONError(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{bad json")); err == nil {
		t.Error("bad JSON accepted")
	}
}

func TestCSVWriters(t *testing.T) {
	db := sampleDB()
	cases := []struct {
		name  string
		write func(*bytes.Buffer) error
		rows  int // data rows expected
	}{
		{"throughput", func(b *bytes.Buffer) error { return db.WriteThroughputCSV(b) }, 2},
		{"rtt", func(b *bytes.Buffer) error { return db.WriteRTTCSV(b) }, 2},
		{"handover", func(b *bytes.Buffer) error { return db.WriteHandoverCSV(b) }, 1},
		{"appruns", func(b *bytes.Buffer) error { return db.WriteAppRunCSV(b) }, 1},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if err := c.write(&buf); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		records, err := csv.NewReader(&buf).ReadAll()
		if err != nil {
			t.Fatalf("%s: reparse: %v", c.name, err)
		}
		if len(records) != c.rows+1 {
			t.Errorf("%s: %d rows, want %d+header", c.name, len(records), c.rows)
		}
		for i, rec := range records {
			if len(rec) != len(records[0]) {
				t.Errorf("%s row %d: %d fields, want %d", c.name, i, len(rec), len(records[0]))
			}
		}
	}
}

func TestThroughputCSVContent(t *testing.T) {
	db := sampleDB()
	var buf bytes.Buffer
	if err := db.WriteThroughputCSV(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{"Verizon", "5G-mid", "42.5", "V-5G-mid-0001", "Highway"} {
		if !strings.Contains(s, want) && !strings.Contains(s, strings.ToLower(want)) {
			t.Errorf("CSV missing %q", want)
		}
	}
}

func TestDBStringSummary(t *testing.T) {
	s := sampleDB().String()
	for _, want := range []string{"tests=2", "tput=2", "rtt=2", "ho=1", "apps=1", "passive=1"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary %q missing %q", s, want)
		}
	}
}

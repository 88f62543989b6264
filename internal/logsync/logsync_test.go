package logsync

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"github.com/nuwins/cellwheels/internal/dataset"
	"github.com/nuwins/cellwheels/internal/geo"
	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/ran"
	"github.com/nuwins/cellwheels/internal/unit"
	"github.com/nuwins/cellwheels/internal/xcal"
)

// makeFile records a synthetic 10 s capture starting at startUTC at the
// given odometer position, and returns it with the ground-truth rows.
func makeFile(t *testing.T, op radio.Operator, label string, startUTC time.Time, odo unit.Meters, tech radio.Technology, mbps float64) xcal.File {
	t.Helper()
	route := geo.DefaultRoute()
	wp := route.At(odo)
	rec := xcal.NewRecorder(op)
	rec.StartFile(label, startUTC, wp.Timezone)
	st := ran.LinkState{Tech: tech, CellID: "X-1", RSRP: -95, SINR: 12, MCS: 14, CCDL: 2, CCUL: 1}
	tick := 50 * time.Millisecond
	perTick := unit.BitRate(mbps * 1e6).BytesIn(tick)
	for i := 0; i < int(10*time.Second/tick); i++ {
		st.Time = startUTC.Add(time.Duration(i) * tick)
		rec.Observe(tick, st, wp, 42, perTick)
	}
	return rec.CloseFile()
}

// captures normalises files as a lane does when each test ends.
func captures(files ...xcal.File) []Capture {
	n := NewNormalizer(geo.DefaultRoute())
	out := make([]Capture, len(files))
	for i := range files {
		out[i] = n.Capture(&files[i])
	}
	return out
}

// passiveLogs converts passive-logger rows keyed by operator short code as
// the lanes do.
func passiveLogs(t *testing.T, logger map[string][]xcal.LoggerRow) map[string]Passive {
	t.Helper()
	n := NewNormalizer(geo.DefaultRoute())
	out := map[string]Passive{}
	for short, rows := range logger {
		op, ok := radio.ParseOperatorShort(short)
		if !ok {
			t.Fatalf("unknown operator %q", short)
		}
		var p Passive
		n.Passive(&p, op, rows)
		out[short] = p
	}
	return out
}

func utcStamp(t time.Time) string { return t.UTC().Format(time.RFC3339Nano) }

func TestParseContentTime(t *testing.T) {
	// Noon EDT = 16:00 UTC.
	got, err := ParseContentTime("08/08/2022 12:00:00.000")
	if err != nil {
		t.Fatal(err)
	}
	want := time.Date(2022, 8, 8, 16, 0, 0, 0, time.UTC)
	if !got.Equal(want) {
		t.Errorf("got %v, want %v", got, want)
	}
	if _, err := ParseContentTime("garbage"); err == nil {
		t.Error("garbage accepted")
	}
}

func TestAppLogStartUTC(t *testing.T) {
	// UTC stamp round-trips.
	at := time.Date(2022, 8, 10, 3, 4, 5, 0, time.UTC)
	l := AppLog{StartStamp: utcStamp(at), Stamp: StampUTC}
	got, err := l.StartUTC()
	if err != nil || !got.Equal(at) {
		t.Errorf("utc stamp: %v, %v", got, err)
	}
	// Naive local + zone resolves correctly: 09:00 Mountain = 15:00 UTC.
	l2 := AppLog{StartStamp: "2022-08-10 09:00:00", Stamp: StampLocalNaive, Zone: "Mountain"}
	got2, err := l2.StartUTC()
	if err != nil {
		t.Fatal(err)
	}
	want := time.Date(2022, 8, 10, 15, 0, 0, 0, time.UTC)
	if !got2.Equal(want) {
		t.Errorf("local stamp: got %v, want %v", got2, want)
	}
	// Unknown zone errors.
	if _, err := (AppLog{Stamp: StampLocalNaive, Zone: "Atlantis", StartStamp: "2022-08-10 09:00:00"}).StartUTC(); err == nil {
		t.Error("unknown zone accepted")
	}
}

func TestLabelRoundTrip(t *testing.T) {
	for _, k := range dataset.Kinds() {
		l := LabelOf(k)
		if l == "?" {
			t.Errorf("no label for %v", k)
		}
		if kindByLabel[l] != k {
			t.Errorf("label %q does not map back to %v", l, k)
		}
	}
}

func TestMergeMatchesAcrossTimezones(t *testing.T) {
	// Three tests at positions in three different timezones, same
	// operator and kind, so matching must disambiguate via timestamps.
	starts := []time.Time{
		time.Date(2022, 8, 8, 17, 0, 0, 0, time.UTC),
		time.Date(2022, 8, 10, 18, 0, 0, 0, time.UTC),
		time.Date(2022, 8, 13, 19, 0, 0, 0, time.UTC),
	}
	odos := []unit.Meters{100 * unit.Kilometer, 2500 * unit.Kilometer, 5500 * unit.Kilometer}
	servers := []string{"srv-a", "srv-b", "srv-c"}

	var files []xcal.File
	var apps []AppLog
	for i := range starts {
		files = append(files, makeFile(t, radio.Verizon, "DL", starts[i], odos[i], radio.NRMid, 50))
		apps = append(apps, AppLog{
			Op: "V", Kind: "DL", Server: servers[i],
			StartStamp: utcStamp(starts[i]), Stamp: StampUTC, DurationSec: 10,
		})
	}
	db, rep, err := Merge(Input{Captures: captures(files...), Apps: apps})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Matched != 3 || len(rep.UnmatchedFiles) != 0 || rep.UnmatchedApps != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if len(db.Tests) != 3 {
		t.Fatalf("tests = %d", len(db.Tests))
	}
	// Each test's start must equal ground truth, and its server must be
	// the one from the app log that truly belongs to that instant.
	for _, test := range db.Tests {
		matched := false
		for i := range starts {
			if test.Start.Equal(starts[i]) {
				matched = true
				if test.Server != servers[i] {
					t.Errorf("test at %v got server %q, want %q", test.Start, test.Server, servers[i])
				}
				if got := math.Abs(float64(test.StartOdo - odos[i])); got > 20e3 {
					t.Errorf("test odometer %v, want ≈%v", test.StartOdo, odos[i])
				}
			}
		}
		if !matched {
			t.Errorf("test start %v matches no ground truth", test.Start)
		}
	}
}

func TestMergeThroughputSamplesCarryKPIs(t *testing.T) {
	start := time.Date(2022, 8, 9, 16, 30, 0, 0, time.UTC)
	f := makeFile(t, radio.TMobile, "DL", start, 300*unit.Kilometer, radio.NRMid, 80)
	app := AppLog{Op: "T", Kind: "DL", Server: "ec2-ca-general",
		StartStamp: utcStamp(start), Stamp: StampUTC, DurationSec: 10}
	db, _, err := Merge(Input{Captures: captures(f), Apps: []AppLog{app}})
	if err != nil {
		t.Fatal(err)
	}
	if len(db.Throughput) != 20 { // 10 s / 500 ms
		t.Fatalf("samples = %d, want 20", len(db.Throughput))
	}
	s := db.Throughput[0]
	if s.Op != radio.TMobile || s.Dir != radio.Downlink || s.Tech != radio.NRMid {
		t.Errorf("sample context = %+v", s)
	}
	if s.Mbps < 79 || s.Mbps > 81 {
		t.Errorf("Mbps = %v, want 80", s.Mbps)
	}
	if s.RSRP != -95 || s.MCS != 14 || s.CC != 2 {
		t.Errorf("KPIs = rsrp %v mcs %d cc %d", s.RSRP, s.MCS, s.CC)
	}
	if !s.Time.Equal(start) {
		t.Errorf("first sample at %v, want %v", s.Time, start)
	}
	if s.Timezone != geo.Pacific {
		t.Errorf("timezone = %v", s.Timezone)
	}
}

func TestMergeUplinkUsesULCC(t *testing.T) {
	start := time.Date(2022, 8, 9, 16, 30, 0, 0, time.UTC)
	f := makeFile(t, radio.TMobile, "UL", start, 300*unit.Kilometer, radio.NRMid, 20)
	app := AppLog{Op: "T", Kind: "UL", StartStamp: utcStamp(start), Stamp: StampUTC, DurationSec: 10}
	db, _, err := Merge(Input{Captures: captures(f), Apps: []AppLog{app}})
	if err != nil {
		t.Fatal(err)
	}
	if db.Throughput[0].CC != 1 { // makeFile sets CCUL=1, CCDL=2
		t.Errorf("UL CC = %d, want 1", db.Throughput[0].CC)
	}
	if db.Throughput[0].Dir != radio.Uplink {
		t.Error("direction not uplink")
	}
}

func TestMergeRTTSamples(t *testing.T) {
	start := time.Date(2022, 8, 11, 14, 0, 0, 0, time.UTC)
	f := makeFile(t, radio.ATT, "RTT", start, 3000*unit.Kilometer, radio.LTEA, 0)
	app := AppLog{
		Op: "A", Kind: "RTT",
		// RTT logs use naive local stamps; 3000 km is Central.
		StartStamp: start.In(geo.Central.Location()).Format(xcal.LoggerFormat),
		Stamp:      StampLocalNaive, Zone: "Central", DurationSec: 10,
		RTTs: []RTTEntry{
			{OffsetMS: 200, RTTMS: 63.5},
			{OffsetMS: 400, RTTMS: 70.1},
			{OffsetMS: 600, Lost: true},
		},
	}
	db, rep, err := Merge(Input{Captures: captures(f), Apps: []AppLog{app}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Matched != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if len(db.RTT) != 3 {
		t.Fatalf("rtt samples = %d", len(db.RTT))
	}
	if db.RTT[0].RTTMS != 63.5 || db.RTT[0].Tech != radio.LTEA {
		t.Errorf("sample = %+v", db.RTT[0])
	}
	if !db.RTT[0].Time.Equal(start.Add(200 * time.Millisecond)) {
		t.Errorf("sample time = %v", db.RTT[0].Time)
	}
	lost := 0
	for _, s := range db.RTT {
		if s.Lost {
			lost++
		}
	}
	if lost != 1 {
		t.Errorf("lost = %d", lost)
	}
}

func TestMergeAppRun(t *testing.T) {
	start := time.Date(2022, 8, 12, 15, 0, 0, 0, time.UTC)
	f := makeFile(t, radio.Verizon, "AR", start, 4000*unit.Kilometer, radio.NRMid, 5)
	app := AppLog{
		Op: "V", Kind: "AR", Compressed: true, Edge: true,
		StartStamp: utcStamp(start), Stamp: StampUTC, DurationSec: 10,
		Metrics: map[string]float64{"e2e_ms": 214, "fps": 4.35, "map": 30.1},
	}
	db, _, err := Merge(Input{Captures: captures(f), Apps: []AppLog{app}})
	if err != nil {
		t.Fatal(err)
	}
	if len(db.AppRuns) != 1 {
		t.Fatalf("app runs = %d", len(db.AppRuns))
	}
	r := db.AppRuns[0]
	if r.E2EMS != 214 || r.OffloadFPS != 4.35 || r.MAP != 30.1 || !r.Compressed || !r.Edge {
		t.Errorf("run = %+v", r)
	}
	if r.HighSpeedFrac != 1 { // all rows on NRMid
		t.Errorf("high-speed frac = %v", r.HighSpeedFrac)
	}
}

func TestMergeHandoverSignals(t *testing.T) {
	start := time.Date(2022, 8, 9, 16, 30, 0, 0, time.UTC)
	f := makeFile(t, radio.Verizon, "DL", start, 300*unit.Kilometer, radio.NRMid, 50)
	f.Signals = append(f.Signals, xcal.Signal{
		TimeEDT:    start.Add(2 * time.Second).In(xcal.EDT).Format(xcal.ContentFormat),
		Event:      "HO",
		FromTech:   "5G-mid",
		ToTech:     "LTE-A",
		DurationMS: 53,
	})
	app := AppLog{Op: "V", Kind: "DL", StartStamp: utcStamp(start), Stamp: StampUTC, DurationSec: 10}
	db, _, err := Merge(Input{Captures: captures(f), Apps: []AppLog{app}})
	if err != nil {
		t.Fatal(err)
	}
	if len(db.Handovers) != 1 {
		t.Fatalf("handovers = %d", len(db.Handovers))
	}
	h := db.Handovers[0]
	if h.FromTech != radio.NRMid || h.ToTech != radio.LTEA || h.DurationMS != 53 {
		t.Errorf("handover = %+v", h)
	}
	if !h.Vertical() {
		t.Error("5G->4G not vertical")
	}
	// The 500 ms window containing the HO must count it.
	counted := 0
	for _, s := range db.Throughput {
		counted += s.Handovers
	}
	if counted != 1 {
		t.Errorf("windows counted %d handovers, want 1", counted)
	}
}

func TestMergeUnmatchedFileReported(t *testing.T) {
	start := time.Date(2022, 8, 9, 16, 30, 0, 0, time.UTC)
	f := makeFile(t, radio.Verizon, "DL", start, 300*unit.Kilometer, radio.NRMid, 50)
	// App log two hours away: no match.
	app := AppLog{Op: "V", Kind: "DL", StartStamp: utcStamp(start.Add(2 * time.Hour)), Stamp: StampUTC, DurationSec: 10}
	db, rep, err := Merge(Input{Captures: captures(f), Apps: []AppLog{app}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Matched != 0 || len(rep.UnmatchedFiles) != 1 || rep.UnmatchedApps != 1 {
		t.Errorf("report = %+v", rep)
	}
	if len(db.Tests) != 0 {
		t.Errorf("tests = %d", len(db.Tests))
	}
}

func TestMergePassiveRows(t *testing.T) {
	route := geo.DefaultRoute()
	at := time.Date(2022, 8, 10, 20, 0, 0, 0, time.UTC) // 14:00 Mountain
	wp := route.At(1200 * unit.Kilometer)
	rows := []xcal.LoggerRow{{
		TimeLocal: at.In(wp.Timezone.Location()).Format(xcal.LoggerFormat),
		Zone:      wp.Timezone.String(),
		Tech:      "LTE-A",
		CellID:    "A-LTE-A-0042",
		Lat:       wp.Loc.Lat, Lon: wp.Loc.Lon, SpeedMPH: 68,
	}}
	db, _, err := Merge(Input{Passive: passiveLogs(t, map[string][]xcal.LoggerRow{"A": rows})})
	if err != nil {
		t.Fatal(err)
	}
	if len(db.Passive) != 1 {
		t.Fatalf("passive = %d", len(db.Passive))
	}
	p := db.Passive[0]
	if !p.Time.Equal(at) {
		t.Errorf("passive time = %v, want %v", p.Time, at)
	}
	if p.Op != radio.ATT || p.Tech != radio.LTEA {
		t.Errorf("passive = %+v", p)
	}
	if math.Abs(float64(p.Odometer-1200*unit.Kilometer)) > 20e3 {
		t.Errorf("passive odometer = %v", p.Odometer)
	}
}

func TestMergeBadInputs(t *testing.T) {
	if _, _, err := Merge(Input{Captures: captures(xcal.File{Name: "nonsense"})}); err == nil {
		t.Error("malformed file name accepted")
	}
	bad := AppLog{Op: "V", Kind: "DL", StartStamp: "not-a-time", Stamp: StampUTC}
	if _, _, err := Merge(Input{Apps: []AppLog{bad}}); err == nil {
		t.Error("malformed app stamp accepted")
	}
}

func TestMergeManyTestsAllMatchedProperty(t *testing.T) {
	// A denser scenario: 20 tests across the route and the trip days with
	// mixed stamp formats; every file must match its own app log.
	route := geo.DefaultRoute()
	var files []xcal.File
	var apps []AppLog
	base := time.Date(2022, 8, 8, 17, 0, 0, 0, time.UTC)
	for i := 0; i < 20; i++ {
		start := base.Add(time.Duration(i) * 37 * time.Minute)
		odo := unit.Meters(float64(i) / 20 * float64(route.Total()))
		op := radio.Operators()[i%3]
		files = append(files, makeFile(t, op, "DL", start, odo, radio.LTEA, 30))
		stamp := StampUTC
		ss := utcStamp(start)
		zone := ""
		if i%2 == 1 {
			stamp = StampLocalNaive
			z := route.At(odo).Timezone
			ss = start.In(z.Location()).Format(xcal.LoggerFormat)
			zone = z.String()
		}
		apps = append(apps, AppLog{
			Op: op.Short(), Kind: "DL", Server: fmt.Sprintf("srv-%02d", i),
			StartStamp: ss, Stamp: stamp, Zone: zone, DurationSec: 10,
		})
	}
	db, rep, err := Merge(Input{Captures: captures(files...), Apps: apps})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Matched != 20 || rep.UnmatchedApps != 0 || len(rep.UnmatchedFiles) != 0 {
		t.Fatalf("report = %+v", rep)
	}
	// Every test must carry the server of the app log at its exact start.
	for _, test := range db.Tests {
		i := int(test.Start.Sub(base) / (37 * time.Minute))
		want := fmt.Sprintf("srv-%02d", i)
		if test.Server != want {
			t.Errorf("test starting %v: server %q, want %q", test.Start, test.Server, want)
		}
	}
}

func TestMergeZoneResolutionProperty(t *testing.T) {
	// Property: for any trip hour and any position on the route, a file
	// named with local time matches an app log stamped in UTC, and the
	// reconstructed start equals the ground truth exactly.
	route := geo.DefaultRoute()
	f := func(hourOffset uint16, posPermille uint16) bool {
		start := time.Date(2022, 8, 8, 16, 0, 0, 0, time.UTC).
			Add(time.Duration(hourOffset%190) * time.Hour)
		odo := unit.Meters(float64(posPermille%1000) / 1000 * float64(route.Total()))
		file := makeFile(t, radio.TMobile, "UL", start, odo, radio.NRLow, 12)
		app := AppLog{Op: "T", Kind: "UL", StartStamp: utcStamp(start), Stamp: StampUTC, DurationSec: 10}
		db, rep, err := Merge(Input{Captures: captures(file), Apps: []AppLog{app}})
		if err != nil || rep.Matched != 1 || len(db.Tests) != 1 {
			return false
		}
		return db.Tests[0].Start.Equal(start)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestMergeCrossOperatorTies pins the merge's output order where rows of
// different operators tie on time, its error when a malformed name sits
// between valid ones, and the order it reports unmatched files in.
func TestMergeCrossOperatorTies(t *testing.T) {
	route := geo.DefaultRoute()
	start := time.Date(2022, 8, 9, 17, 0, 0, 0, time.UTC)
	odo := 300 * unit.Kilometer
	app := func(op radio.Operator, label string) AppLog {
		return AppLog{Op: op.Short(), Kind: label, StartStamp: utcStamp(start), Stamp: StampUTC, DurationSec: 10}
	}
	// Four tests start at one instant, so their throughput rows share
	// every timestamp. Name order is A_DL, A_UL, T_DL, V_DL: test IDs
	// 1..4. The input order is scrambled on purpose.
	files := []xcal.File{
		makeFile(t, radio.Verizon, "DL", start, odo, radio.NRMid, 50),
		makeFile(t, radio.ATT, "UL", start, odo, radio.LTE, 5),
		makeFile(t, radio.TMobile, "DL", start, odo, radio.NRMid, 80),
		makeFile(t, radio.ATT, "DL", start, odo, radio.LTEA, 30),
	}
	apps := []AppLog{app(radio.TMobile, "DL"), app(radio.Verizon, "DL"), app(radio.ATT, "DL"), app(radio.ATT, "UL")}

	// Passive rows of all three operators at two shared instants; A has
	// two rows at the first, which must keep their input order.
	wp := route.At(odo)
	row := func(at time.Time, cell string) xcal.LoggerRow {
		return xcal.LoggerRow{
			TimeLocal: at.In(wp.Timezone.Location()).Format(xcal.LoggerFormat),
			Zone:      wp.Timezone.String(), Tech: "LTE", CellID: cell,
			Lat: wp.Loc.Lat, Lon: wp.Loc.Lon,
		}
	}
	t0, t1 := start, start.Add(time.Second)
	logger := map[string][]xcal.LoggerRow{
		"A": {row(t1, "A-2"), row(t0, "A-0"), row(t0, "A-1")},
		"T": {row(t0, "T-0"), row(t1, "T-1")},
		"V": {row(t1, "V-1"), row(t0, "V-0")},
	}

	db, rep, err := Merge(Input{Captures: captures(files...), Apps: apps, Passive: passiveLogs(t, logger)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Matched != 4 || rep.UnmatchedApps != 0 || len(rep.UnmatchedFiles) != 0 {
		t.Fatalf("report = %+v", rep)
	}
	var tests []string
	for _, test := range db.Tests {
		tests = append(tests, fmt.Sprintf("%d:%s/%s", test.ID, test.Op.Short(), LabelOf(test.Kind)))
	}
	if got, want := fmt.Sprint(tests), "[1:A/DL 2:A/UL 3:T/DL 4:V/DL]"; got != want {
		t.Errorf("tests = %s, want %s", got, want)
	}
	if len(db.Throughput) == 0 || len(db.Throughput)%4 != 0 {
		t.Fatalf("throughput rows = %d, want a positive multiple of 4", len(db.Throughput))
	}
	for i, s := range db.Throughput {
		if want := i%4 + 1; s.TestID != want || !s.Time.Equal(db.Throughput[i-i%4].Time) {
			t.Fatalf("throughput[%d] = test %d at %v, want test %d at the time of row %d", i, s.TestID, s.Time, want, i-i%4)
		}
	}
	var passive []string
	for _, p := range db.Passive {
		passive = append(passive, p.CellID)
	}
	if got, want := fmt.Sprint(passive), "[V-0 T-0 A-0 A-1 V-1 T-1 A-2]"; got != want {
		t.Errorf("passive order = %s, want %s", got, want)
	}

	// The first malformed name in name order is the error, whatever the
	// valid names around it.
	bad := append([]xcal.File{{Name: "U_x_y_z.drm"}, {Name: "B_junk.drm"}}, files...)
	_, _, err = Merge(Input{Captures: captures(bad...), Apps: apps, Passive: passiveLogs(t, logger)})
	if got, want := fmt.Sprint(err), `logsync: malformed file name "B_junk.drm"`; got != want {
		t.Errorf("error = %s, want %s", got, want)
	}

	// Unmatched files are reported in name order across operators.
	_, rep, err = Merge(Input{Captures: captures(files...), Apps: apps[:1]})
	if err != nil {
		t.Fatal(err)
	}
	stamp := start.In(wp.Timezone.Location()).Format(xcal.FileNameFormat)
	want := []string{"A_DL_" + stamp + ".drm", "A_UL_" + stamp + ".drm", "V_DL_" + stamp + ".drm"}
	if rep.Matched != 1 || fmt.Sprint(rep.UnmatchedFiles) != fmt.Sprint(want) {
		t.Errorf("report = %+v, want 1 match and unmatched %v", rep, want)
	}
}

// TestMergeContentErrorOnlyWhenMatched pins where the content error of
// a capture, normalised before any match, surfaces: an unmatched
// capture with a bad stamp stays silent, and the same capture, once an
// app log matches it, fails the merge with its parse error.
func TestMergeContentErrorOnlyWhenMatched(t *testing.T) {
	start := time.Date(2022, 8, 9, 16, 30, 0, 0, time.UTC)
	f := makeFile(t, radio.Verizon, "DL", start, 300*unit.Kilometer, radio.NRMid, 50)
	f.Rows[3].TimeEDT = "08/09/2022 25:61:00.000"
	c := captures(f)
	app := AppLog{Op: "V", Kind: "DL", StartStamp: utcStamp(start), Stamp: StampUTC, DurationSec: 10}
	away := app
	away.StartStamp = utcStamp(start.Add(2 * time.Hour))

	db, rep, err := Merge(Input{Captures: c, Apps: []AppLog{away}})
	if err != nil {
		t.Fatalf("unmatched capture with a bad stamp: %v", err)
	}
	if len(rep.UnmatchedFiles) != 1 || len(db.Tests) != 0 {
		t.Errorf("report = %+v, tests = %d", rep, len(db.Tests))
	}

	_, _, err = Merge(Input{Captures: c, Apps: []AppLog{app}})
	_, want := ParseContentTime(f.Rows[3].TimeEDT)
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Errorf("matched capture with a bad stamp: error %v, want %v", err, want)
	}
}

// TestMergeLeavesInputIntact pins that Merge only reads its Input, on
// the path that must sort a copy of out-of-order passive samples too:
// two merges of one Input are equal, and the Input's samples keep their
// order.
func TestMergeLeavesInputIntact(t *testing.T) {
	start := time.Date(2022, 8, 9, 17, 0, 0, 0, time.UTC)
	odo := 300 * unit.Kilometer
	wp := geo.DefaultRoute().At(odo)
	row := func(at time.Time, cell string) xcal.LoggerRow {
		return xcal.LoggerRow{
			TimeLocal: at.In(wp.Timezone.Location()).Format(xcal.LoggerFormat),
			Zone:      wp.Timezone.String(), Tech: "LTE", CellID: cell,
			Lat: wp.Loc.Lat, Lon: wp.Loc.Lon,
		}
	}
	in := Input{
		Captures: captures(makeFile(t, radio.ATT, "DL", start, odo, radio.LTEA, 30)),
		Apps:     []AppLog{{Op: "A", Kind: "DL", StartStamp: utcStamp(start), Stamp: StampUTC, DurationSec: 10}},
		Passive:  passiveLogs(t, map[string][]xcal.LoggerRow{"A": {row(start.Add(time.Second), "A-1"), row(start, "A-0")}}),
	}
	first, _, err := Merge(in)
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := Merge(in)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("two merges of one Input differ")
	}
	if got := in.Passive["A"].Samples; got[0].CellID != "A-1" || got[1].CellID != "A-0" {
		t.Errorf("Merge reordered its input's passive samples: %s, %s", got[0].CellID, got[1].CellID)
	}
	if first.Passive[0].CellID != "A-0" || len(first.Throughput) != 20 {
		t.Errorf("merged passive starts with %s and has %d throughput samples", first.Passive[0].CellID, len(first.Throughput))
	}
}

package logsync

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/nuwins/cellwheels/internal/dataset"
	"github.com/nuwins/cellwheels/internal/deploy"
	"github.com/nuwins/cellwheels/internal/geo"
	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/ran"
	"github.com/nuwins/cellwheels/internal/simrand"
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

// merge is Merge of an input that must merge.
func merge(t *testing.T, in Input) (*dataset.DB, Report) {
	t.Helper()
	db, rep, err := Merge(in)
	if err != nil {
		t.Fatal(err)
	}
	return db, rep
}

// passiveLog stores passive-logger rows keyed by operator as the lanes
// do: the seconds once, from the first operator's rows, and a column of
// cells per operator. The rows of every operator must log the same
// seconds. The seconds come in chunks of three, one and two rows in
// turn, and the columns in chunks of one, two and three, each after an
// empty one, so every merge test crosses chunk edges, and not at the
// same rows.
func passiveLog(t *testing.T, logger map[radio.Operator][]xcal.LoggerRow) PassiveLog {
	t.Helper()
	n := NewNormalizer(geo.DefaultRoute())
	p := PassiveLog{Columns: map[radio.Operator][][]PassiveCell{}}
	var first []xcal.LoggerRow
	for _, op := range radio.Operators() {
		rows, ok := logger[op]
		if !ok {
			continue
		}
		if first == nil {
			first = rows
			p.Seconds = chunks(rows, 3, n.Second)
		}
		for i := range rows {
			if n.Second(&rows[i]) != n.Second(&first[i]) {
				t.Fatalf("%v row %d logs another second than the first operator's", op, i)
			}
		}
		p.Columns[op] = chunks(rows, 1, func(r *xcal.LoggerRow) PassiveCell { return PassiveCell{Tech: r.Tech, CellID: r.CellID} })
	}
	return p
}

// chunks converts rows into chunks of size, size%3+1, … rows, after an
// empty chunk.
func chunks[T any](rows []xcal.LoggerRow, size int, conv func(*xcal.LoggerRow) T) [][]T {
	out := [][]T{nil}
	for ; len(rows) > 0; size = size%3 + 1 {
		k := min(size, len(rows))
		c := make([]T, k)
		for i := range c {
			c[i] = conv(&rows[i])
		}
		out = append(out, c)
		rows = rows[k:]
	}
	return out
}

func TestLabelRoundTrip(t *testing.T) {
	for k := dataset.ThroughputDL; k <= dataset.AppGaming; k++ {
		l := LabelOf(k)
		if l == "" {
			t.Errorf("no label for %v", k)
		}
		if back, ok := kindOf(l); !ok || back != k {
			t.Errorf("label %q reads back as %v, %v, want %v", l, back, ok, k)
		}
	}
	if k, ok := kindOf("bench"); ok {
		t.Errorf("label outside the table reads back as %v", k)
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
			Op: radio.Verizon, Kind: dataset.ThroughputDL, Server: servers[i],
			Start: starts[i], DurationSec: 10,
		})
	}
	db, rep := merge(t, Input{Captures: captures(files...), Apps: apps})
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
	app := AppLog{Op: radio.TMobile, Kind: dataset.ThroughputDL, Server: "ec2-ca-general",
		Start: start, DurationSec: 10}
	db, _ := merge(t, Input{Captures: captures(f), Apps: []AppLog{app}})
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
	app := AppLog{Op: radio.TMobile, Kind: dataset.ThroughputUL, Start: start, DurationSec: 10}
	db, _ := merge(t, Input{Captures: captures(f), Apps: []AppLog{app}})
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
		Op: radio.ATT, Kind: dataset.RTTTest, Start: start, DurationSec: 10,
		RTTs: []RTTEntry{
			{OffsetMS: 200, RTTMS: 63.5},
			{OffsetMS: 400, RTTMS: 70.1},
			{OffsetMS: 600, Lost: true},
		},
	}
	db, rep := merge(t, Input{Captures: captures(f), Apps: []AppLog{app}})
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
		Op: radio.Verizon, Kind: dataset.AppAR, Compressed: true, Edge: true,
		Start: start, DurationSec: 10,
		// Only the metric fields are the app's; Merge sets the rest.
		Result: dataset.AppRun{E2EMS: 214, OffloadFPS: 4.35, MAP: 30.1, TestID: 99, Kind: dataset.AppGaming, Handovers: 7},
	}
	db, _ := merge(t, Input{Captures: captures(f), Apps: []AppLog{app}})
	if len(db.AppRuns) != 1 {
		t.Fatalf("app runs = %d", len(db.AppRuns))
	}
	r := db.AppRuns[0]
	if r.E2EMS != 214 || r.OffloadFPS != 4.35 || r.MAP != 30.1 || !r.Compressed || !r.Edge {
		t.Errorf("run = %+v", r)
	}
	if r.TestID != 1 || r.Kind != dataset.AppAR || r.Op != radio.Verizon || !r.Start.Equal(start) || r.Handovers != 0 {
		t.Errorf("run context = %+v", r)
	}
	if r.HighSpeedFrac != 1 { // all rows on NRMid
		t.Errorf("high-speed frac = %v", r.HighSpeedFrac)
	}
}

func TestMergeHandoverSignals(t *testing.T) {
	start := time.Date(2022, 8, 9, 16, 30, 0, 0, time.UTC)
	f := makeFile(t, radio.Verizon, "DL", start, 300*unit.Kilometer, radio.NRMid, 50)
	f.Signals = append(f.Signals, xcal.Signal{
		Time:       start.Add(2 * time.Second),
		Event:      "HO",
		FromTech:   radio.NRMid,
		ToTech:     radio.LTEA,
		DurationMS: 53,
	})
	app := AppLog{Op: radio.Verizon, Kind: dataset.ThroughputDL, Start: start, DurationSec: 10}
	db, _ := merge(t, Input{Captures: captures(f), Apps: []AppLog{app}})
	if len(db.Handovers) != 1 {
		t.Fatalf("handovers = %d", len(db.Handovers))
	}
	h := db.Handovers[0]
	if h.FromTech != radio.NRMid || h.ToTech != radio.LTEA || h.DurationMS != 53 {
		t.Errorf("handover = %+v", h)
	}
	if h.FromTech.Is5G() == h.ToTech.Is5G() {
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
	app := AppLog{Op: radio.Verizon, Kind: dataset.ThroughputDL, Start: start.Add(2 * time.Hour), DurationSec: 10}
	db, rep := merge(t, Input{Captures: captures(f), Apps: []AppLog{app}})
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
		Time:     at,
		Zone:     wp.Timezone,
		Tech:     radio.LTEA,
		CellID:   "A-LTE-A-0042",
		Loc:      wp.Loc,
		SpeedMPH: 68,
	}}
	db, _ := merge(t, Input{Passive: passiveLog(t, map[radio.Operator][]xcal.LoggerRow{radio.ATT: rows})})
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

func TestMergeManyTestsAllMatchedProperty(t *testing.T) {
	// A denser scenario: 20 tests across the route and the trip days;
	// every file must match its own app log.
	route := geo.DefaultRoute()
	var files []xcal.File
	var apps []AppLog
	base := time.Date(2022, 8, 8, 17, 0, 0, 0, time.UTC)
	for i := 0; i < 20; i++ {
		start := base.Add(time.Duration(i) * 37 * time.Minute)
		odo := unit.Meters(float64(i) / 20 * float64(route.Total()))
		op := radio.Operators()[i%3]
		files = append(files, makeFile(t, op, "DL", start, odo, radio.LTEA, 30))
		apps = append(apps, AppLog{
			Op: op, Kind: dataset.ThroughputDL, Server: fmt.Sprintf("srv-%02d", i),
			Start: start, DurationSec: 10,
		})
	}
	db, rep := merge(t, Input{Captures: captures(files...), Apps: apps})
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
		app := AppLog{Op: radio.TMobile, Kind: dataset.ThroughputUL, Start: start, DurationSec: 10}
		db, rep := merge(t, Input{Captures: captures(file), Apps: []AppLog{app}})
		if rep.Matched != 1 || len(db.Tests) != 1 {
			return false
		}
		return db.Tests[0].Start.Equal(start)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// textPassive is the passive log's former text round trip, kept here as
// the reference the typed conversion must equal: each row stamped as the
// logger app renders it (naive local time, a zone name, a technology
// label) and parsed back.
func textPassive(t *testing.T, route *geo.Route, op radio.Operator, rows []xcal.LoggerRow) []dataset.CoverageSample {
	t.Helper()
	const layout = "2006-01-02 15:04:05"
	var out []dataset.CoverageSample
	for _, r := range rows {
		z, ok := zoneNamed(r.Zone.String())
		if !ok {
			t.Fatalf("zone %v does not parse back", r.Zone)
		}
		at, err := time.ParseInLocation(layout, r.Time.In(z.Location()).Format(layout), z.Location())
		if err != nil {
			t.Fatal(err)
		}
		tech, ok := radio.ParseTechnology(r.Tech.String())
		if !ok {
			t.Fatalf("technology %v does not parse back", r.Tech)
		}
		out = append(out, dataset.CoverageSample{
			Time: at.UTC(), Op: op, Tech: tech, CellID: r.CellID,
			Odometer: route.OdometerOf(r.Loc), Timezone: z, SpeedMPH: r.SpeedMPH,
		})
	}
	return out
}

// zoneNamed reads a zone name back, as the text paths did.
func zoneNamed(name string) (geo.Timezone, bool) {
	for z := geo.Pacific; z <= geo.Eastern; z++ {
		if z.String() == name {
			return z, true
		}
	}
	return geo.Pacific, false
}

// TestPassiveMatchesTextPath steps a passive logger over a 25 km
// timeline, then for a second at fractional instants in each of the
// route's zones, and requires the typed path, its rows stored as the
// lanes store them and expanded by Merge, to give exactly the samples
// the text round trip gives.
func TestPassiveMatchesTextPath(t *testing.T) {
	route := geo.DefaultRoute()
	rng := simrand.New(7)
	m := deploy.NewMap(radio.Verizon, route, rng)
	l := xcal.NewHandoverLogger(ran.UEConfig{Op: radio.Verizon, Map: m}, rng)
	const tick = 50 * time.Millisecond
	tl := geo.NewTimeline(route, geo.DefaultDriveConfig(), rng, geo.TimelineConfig{Tick: tick, Limit: 25 * unit.Kilometer})
	cur := tl.Cursor()
	var last geo.DriveState
	for {
		ts, ok := cur.Next()
		if !ok {
			break
		}
		last = ts.DriveState
		l.Step(last.Time, last.Waypoint, last.Speed.MPH(), tick)
	}
	if last.Odometer < 25*unit.Kilometer {
		t.Fatalf("timeline ends at %v", last.Odometer)
	}
	at := last.Time.Add(123 * time.Millisecond)
	zones := 0
	for odo := unit.Meters(0); odo < route.Total(); odo += 100 * unit.Kilometer {
		wp := route.At(odo)
		if wp.Timezone != geo.Timezone(zones) {
			continue
		}
		for i := 0; i < int(time.Second/tick); i++ {
			at = at.Add(tick + 7*time.Millisecond)
			l.Step(at, wp, 61.5, tick)
		}
		zones++
	}
	if zones != geo.NumTimezones {
		t.Fatalf("stepped in %d zones, want %d", zones, geo.NumTimezones)
	}

	rows := l.Rows()
	if len(rows) < 1000 {
		t.Fatalf("%d rows", len(rows))
	}
	got, _ := merge(t, Input{Passive: passiveLog(t, map[radio.Operator][]xcal.LoggerRow{radio.Verizon: rows})})
	if want := textPassive(t, route, radio.Verizon, rows); !reflect.DeepEqual(got.Passive, want) {
		for i, g := range got.Passive {
			if i < len(want) && g != want[i] {
				t.Fatalf("sample %d = %+v, want %+v", i, g, want[i])
			}
		}
		t.Fatalf("%d samples, want %d", len(got.Passive), len(want))
	}
}

// textCapture is the capture's former text round trip, kept here as the
// reference the typed rows must equal: each row and signal stamped as the
// recorder rendered it (its window's or event's raw instant as
// ContentFormat in EDT, a technology label) and parsed back as the
// normaliser did.
func textCapture(t *testing.T, f xcal.File, rowStarts, sigStarts []time.Time) xcal.File {
	t.Helper()
	stamp := func(at time.Time) time.Time {
		back, err := time.ParseInLocation(xcal.ContentFormat, at.In(xcal.EDT).Format(xcal.ContentFormat), xcal.EDT)
		if err != nil {
			t.Fatal(err)
		}
		return back.UTC()
	}
	tech := func(tech radio.Technology) radio.Technology {
		back, ok := radio.ParseTechnology(tech.String())
		if !ok {
			t.Fatalf("technology %v does not parse back", tech)
		}
		return back
	}
	out := f
	out.Rows = slices.Clone(f.Rows)
	for i := range out.Rows {
		out.Rows[i].Time, out.Rows[i].Tech = stamp(rowStarts[i]), tech(f.Rows[i].Tech)
	}
	out.Signals = slices.Clone(f.Signals)
	for i := range out.Signals {
		s := &out.Signals[i]
		s.Time, s.FromTech, s.ToTech = stamp(sigStarts[i]), tech(s.FromTech), tech(s.ToTech)
	}
	return out
}

// TestCaptureMatchesTextPath records a downlink capture over a 25 km
// timeline, then for a second at sub-millisecond local-time instants in
// each of the route's zones with a handover there, and requires its typed rows and
// signals, and so its normalised capture, to equal what the text round
// trip gives.
func TestCaptureMatchesTextPath(t *testing.T) {
	route := geo.DefaultRoute()
	rng := simrand.New(7)
	m := deploy.NewMap(radio.Verizon, route, rng)
	ue := ran.NewUE(ran.UEConfig{Op: radio.Verizon, Map: m}, rng.Fork("active"))
	const tick = 50 * time.Millisecond
	tl := geo.NewTimeline(route, geo.DefaultDriveConfig(), rng, geo.TimelineConfig{Tick: tick, Limit: 25 * unit.Kilometer})
	cur := tl.Cursor()
	first, _ := cur.Next()
	ds := first.DriveState
	ue.SetTraffic(deploy.HeavyDL, ds.Time, ds.Waypoint)
	rec := xcal.NewRecorder(radio.Verizon)
	rec.StartFile("DL", ds.Time, ds.Waypoint.Timezone)

	// The recorder opens a window at StartFile and after every tenth
	// 50 ms tick, at that tick's instant.
	rowStarts := []time.Time{ds.Time}
	var sigStarts []time.Time
	ticks, hoSeen := 0, 0
	observe := func(at time.Time, wp geo.Waypoint, mph float64) {
		st := ue.Step(at, wp, mph, tick)
		for _, ev := range ue.HandoversFrom(hoSeen) {
			rec.LogHandover(ev)
			sigStarts = append(sigStarts, ev.Start)
		}
		hoSeen = ue.HandoverCount()
		rec.Observe(tick, st, wp, mph, 40*unit.KB)
		if ticks++; ticks%10 == 0 {
			rowStarts = append(rowStarts, at)
		}
	}
	for {
		observe(ds.Time, ds.Waypoint, ds.Speed.MPH())
		ts, ok := cur.Next()
		if !ok {
			break
		}
		ds = ts.DriveState
	}
	if ds.Odometer < 25*unit.Kilometer {
		t.Fatalf("timeline ends at %v", ds.Odometer)
	}
	at := ds.Time.Add(123_456_789)
	zones := 0
	for odo := unit.Meters(0); odo < route.Total(); odo += 100 * unit.Kilometer {
		wp := route.At(odo)
		if wp.Timezone != geo.Timezone(zones) {
			continue
		}
		// Instants in the zone's local time: the rows log them in UTC.
		at = at.In(wp.Timezone.Location())
		for i := 0; i < int(time.Second/tick); i++ {
			at = at.Add(tick + 7_654_321)
			observe(at, wp, 61.5)
		}
		ev := ran.HandoverEvent{Start: at.Add(-333_333), Duration: 41 * time.Millisecond, FromTech: radio.NRMid, ToTech: radio.LTEA}
		rec.LogHandover(ev)
		sigStarts = append(sigStarts, ev.Start)
		zones++
	}
	if zones != geo.NumTimezones {
		t.Fatalf("stepped in %d zones, want %d", zones, geo.NumTimezones)
	}

	f := rec.CloseFile()
	if n := len(f.Rows); n != len(rowStarts) && n != len(rowStarts)-1 {
		t.Fatalf("%d rows for %d windows", n, len(rowStarts))
	}
	if len(f.Signals) != len(sigStarts) || len(sigStarts) <= geo.NumTimezones {
		t.Fatalf("%d signals for %d handovers, want more than one per zone", len(f.Signals), len(sigStarts))
	}
	techs := map[radio.Technology]bool{}
	for _, r := range f.Rows {
		techs[r.Tech] = true
	}
	if len(techs) < 2 {
		t.Fatalf("rows on %d technologies, want several", len(techs))
	}
	want := textCapture(t, f, rowStarts, sigStarts)
	for i := range f.Rows {
		if f.Rows[i] != want.Rows[i] {
			t.Fatalf("row %d = %+v, want %+v", i, f.Rows[i], want.Rows[i])
		}
	}
	for i := range f.Signals {
		if f.Signals[i] != want.Signals[i] {
			t.Fatalf("signal %d = %+v, want %+v", i, f.Signals[i], want.Signals[i])
		}
	}
	n := NewNormalizer(route)
	if got, want := n.Capture(&f), n.Capture(&want); !reflect.DeepEqual(got, want) {
		t.Fatalf("capture = %+v, want %+v", got, want)
	}
}

// nameIdentity is a capture name's former parse, kept here as the
// reference the typed identity must equal: "<OP>_<label>_<stamp>.drm"
// split at its underscores, the operator code and label read back, and
// the stamp parsed as a wall clock with no zone.
func nameIdentity(t *testing.T, name string) (radio.Operator, dataset.TestKind, time.Time) {
	t.Helper()
	parts := strings.Split(strings.TrimSuffix(name, ".drm"), "_")
	if len(parts) != 4 {
		t.Fatalf("malformed file name %q", name)
	}
	i := slices.IndexFunc(radio.Operators(), func(o radio.Operator) bool { return o.Short() == parts[0] })
	if i < 0 {
		t.Fatalf("unknown operator in %q", name)
	}
	op := radio.Operators()[i]
	kind, ok := kindOf(parts[1])
	if !ok {
		t.Fatalf("unknown label in %q", name)
	}
	naive, err := time.Parse(xcal.FileNameFormat, parts[2]+"_"+parts[3])
	if err != nil {
		t.Fatal(err)
	}
	return op, kind, naive
}

// TestCaptureIdentityMatchesName records captures of every operator and
// test kind at random sub-second instants in each of the route's zones,
// and requires each normalised capture's typed operator, kind and naive
// stamp to equal what parsing its name gives.
func TestCaptureIdentityMatchesName(t *testing.T) {
	n := NewNormalizer(geo.DefaultRoute())
	rng := rand.New(rand.NewSource(5))
	base := time.Date(2022, 8, 8, 16, 0, 0, 0, time.UTC)
	for _, op := range radio.Operators() {
		for kind := dataset.ThroughputDL; kind <= dataset.AppGaming; kind++ {
			for z := geo.Pacific; z <= geo.Eastern; z++ {
				for range 20 {
					at := base.Add(time.Duration(rng.Int63n(int64(8 * 24 * time.Hour))))
					rec := xcal.NewRecorder(op)
					rec.StartFile(LabelOf(kind), at, z)
					f := rec.CloseFile()
					c := n.Capture(&f)
					wantOp, wantKind, wantStamp := nameIdentity(t, f.Name)
					if !c.labeled || c.op != wantOp || c.kind != wantKind || c.stamp != wantStamp {
						t.Fatalf("capture %q at %v in %v: identity %v %v %v (labeled %v), want %v %v %v",
							f.Name, at, z, c.op, c.kind, c.stamp, c.labeled, wantOp, wantKind, wantStamp)
					}
				}
			}
		}
	}
}

// TestMergeCrossOperatorTies pins the merge's output order where rows of
// different operators tie on time, and the order it reports unmatched
// files in.
func TestMergeCrossOperatorTies(t *testing.T) {
	route := geo.DefaultRoute()
	start := time.Date(2022, 8, 9, 17, 0, 0, 0, time.UTC)
	odo := 300 * unit.Kilometer
	app := func(op radio.Operator, label string) AppLog {
		kind, _ := kindOf(label)
		return AppLog{Op: op, Kind: kind, Start: start, DurationSec: 10}
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

	// Passive rows of all three operators at the same two seconds.
	wp := route.At(odo)
	row := func(at time.Time, cell string) xcal.LoggerRow {
		return xcal.LoggerRow{Time: at, Zone: wp.Timezone, Tech: radio.LTE, CellID: cell, Loc: wp.Loc}
	}
	t0, t1 := start, start.Add(time.Second)
	logger := map[radio.Operator][]xcal.LoggerRow{
		radio.ATT:     {row(t0, "A-0"), row(t1, "A-1")},
		radio.TMobile: {row(t0, "T-0"), row(t1, "T-1")},
		radio.Verizon: {row(t0, "V-0"), row(t1, "V-1")},
	}

	db, rep := merge(t, Input{Captures: captures(files...), Apps: apps, Passive: passiveLog(t, logger)})
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
	if got, want := fmt.Sprint(passive), "[V-0 T-0 A-0 V-1 T-1 A-1]"; got != want {
		t.Errorf("passive order = %s, want %s", got, want)
	}

	// Unmatched files are reported in name order across operators, a
	// capture whose label is outside the label table among them.
	files = append(files, makeFile(t, radio.TMobile, "bench", start, odo, radio.LTE, 5))
	_, rep = merge(t, Input{Captures: captures(files...), Apps: apps[:1]})
	stamp := start.In(wp.Timezone.Location()).Format(xcal.FileNameFormat)
	want := []string{"A_DL_" + stamp + ".drm", "A_UL_" + stamp + ".drm", "T_bench_" + stamp + ".drm", "V_DL_" + stamp + ".drm"}
	if rep.Matched != 1 || fmt.Sprint(rep.UnmatchedFiles) != fmt.Sprint(want) {
		t.Errorf("report = %+v, want 1 match and unmatched %v", rep, want)
	}
}

// consumingInput is an input with a capture of every table kind, a
// capture no app log matches, an app log with RTT entries, and a passive
// log of two seconds for each operator: everything Merge consumes.
func consumingInput(t *testing.T) Input {
	t.Helper()
	start := time.Date(2022, 8, 9, 17, 0, 0, 0, time.UTC)
	odo := 300 * unit.Kilometer
	wp := geo.DefaultRoute().At(odo)
	logger := map[radio.Operator][]xcal.LoggerRow{}
	for _, op := range radio.Operators() {
		for i := range 2 {
			logger[op] = append(logger[op], xcal.LoggerRow{
				Time: start.Add(time.Duration(i) * time.Second), Zone: wp.Timezone,
				Tech: radio.LTE, CellID: fmt.Sprintf("%s-%d", op.Short(), i), Loc: wp.Loc,
			})
		}
	}
	rtt := start.Add(time.Minute)
	return Input{
		Captures: captures(
			makeFile(t, radio.ATT, "DL", start, odo, radio.LTEA, 30),
			makeFile(t, radio.ATT, "RTT", rtt, odo, radio.LTEA, 0),
			makeFile(t, radio.TMobile, "DL", start, odo, radio.LTE, 30),
		),
		Apps: []AppLog{
			{Op: radio.ATT, Kind: dataset.ThroughputDL, Start: start, DurationSec: 10},
			{Op: radio.ATT, Kind: dataset.RTTTest, Start: rtt, DurationSec: 10, RTTs: []RTTEntry{{OffsetMS: 100, RTTMS: 40}, {OffsetMS: 300, RTTMS: 45}}},
		},
		Passive: passiveLog(t, logger),
	}
}

// TestMergeConsumesInput pins Merge's ownership of its Input: a merge
// drops every capture's tables, matched or not, every matched app log's
// RTT entries and every chunk of the passive log, and what it builds is
// what a merge of an equal Input builds, with every row in place.
func TestMergeConsumesInput(t *testing.T) {
	in := consumingInput(t)
	for _, c := range in.Captures {
		if c.throughput == nil && c.rows == nil {
			t.Fatalf("capture %s has neither throughput samples nor rows to consume", c.Name)
		}
	}
	db, rep := merge(t, in)
	for _, c := range in.Captures {
		if c.handovers != nil || c.throughput != nil || c.rows != nil {
			t.Errorf("capture %s still holds %d handovers, %d throughput samples and %d rows after Merge", c.Name, len(c.handovers), len(c.throughput), len(c.rows))
		}
	}
	for _, a := range in.Apps {
		if a.RTTs != nil {
			t.Errorf("%v app log still holds %d RTT entries after Merge", a.Kind, len(a.RTTs))
		}
	}
	for i, c := range in.Passive.Seconds {
		if c != nil {
			t.Errorf("passive seconds chunk %d still held after Merge", i)
		}
	}
	for op, col := range in.Passive.Columns {
		for i, c := range col {
			if c != nil {
				t.Errorf("%v passive chunk %d still held after Merge", op, i)
			}
		}
	}

	want, wantRep := merge(t, consumingInput(t))
	if !reflect.DeepEqual(db, want) || !reflect.DeepEqual(rep, wantRep) {
		t.Error("merges of two equal Inputs differ")
	}
	var passive []string
	for _, p := range db.Passive {
		passive = append(passive, p.CellID)
	}
	if rep.Matched != 2 || len(rep.UnmatchedFiles) != 1 || len(db.Throughput) != 20 || len(db.RTT) != 2 || db.RTT[0].Tech != radio.LTEA ||
		fmt.Sprint(passive) != "[V-0 T-0 A-0 V-1 T-1 A-1]" {
		t.Errorf("merge matched %d, with %d throughput samples, RTT samples %+v and passive rows %v", rep.Matched, len(db.Throughput), db.RTT, passive)
	}
}

// TestMergeRejectsMisalignedPassive pins that a passive log whose
// columns do not line up with its seconds fails the merge, before it
// consumes anything: a column one row short or long of the seconds, or
// seconds that do not strictly increase, would otherwise cut a column
// short or break the table's order.
func TestMergeRejectsMisalignedPassive(t *testing.T) {
	cases := map[string]func(p *PassiveLog){
		"short column": func(p *PassiveLog) {
			col := p.Columns[radio.TMobile]
			last := &col[len(col)-1]
			*last = (*last)[:len(*last)-1]
		},
		"long column": func(p *PassiveLog) {
			p.Columns[radio.ATT] = append(p.Columns[radio.ATT], []PassiveCell{{Tech: radio.LTE, CellID: "A-2"}})
		},
		"missing column": func(p *PassiveLog) { p.Columns[radio.Verizon] = nil },
		"repeated second": func(p *PassiveLog) {
			p.Seconds = [][]PassiveSecond{{p.Seconds[1][0]}, {p.Seconds[1][0]}}
		},
	}
	for name, spoil := range cases {
		in := consumingInput(t)
		spoil(&in.Passive)
		db, _, err := Merge(in)
		if err == nil || db != nil {
			t.Errorf("%s: Merge returned %v, %v; want an error and no database", name, db, err)
			continue
		}
		if c := in.Captures[0]; c.throughput == nil {
			t.Errorf("%s: a failed Merge consumed its captures", name)
		}
	}
}

// randomInput is a merge input of random captures for all three
// operators, from rng: tests that overlap and share instants across
// operators, rows of one capture that share an instant, captures that
// match no app log and app logs that match no capture. Each row carries
// a unique marker, so a misplaced row shows. Each kind is left out with
// probability 1/3, so some tables are empty.
func randomInput(rng *rand.Rand) Input {
	base := time.Date(2022, 8, 9, 17, 0, 0, 0, time.UTC)
	var kinds []dataset.TestKind
	for k := dataset.ThroughputDL; k <= dataset.AppGaming; k++ {
		if rng.Intn(3) > 0 {
			kinds = append(kinds, k)
		}
	}
	if len(kinds) == 0 {
		return Input{}
	}
	var in Input
	marker := 0.0
	next := func() float64 { marker++; return marker }
	// An instant within the test: a 10 s test's rows fall on 20 windows.
	within := func(start time.Time) time.Time {
		return start.Add(time.Duration(rng.Intn(20)) * 500 * time.Millisecond)
	}
	for range rng.Intn(40) {
		op := radio.Operators()[rng.Intn(3)]
		kind := kinds[rng.Intn(len(kinds))]
		start := base.Add(time.Duration(rng.Intn(30)) * time.Second)
		zone := geo.Timezone(rng.Intn(geo.NumTimezones))
		c := Capture{
			Name:  fmt.Sprintf("%s_%s_%s.drm", op.Short(), LabelOf(kind), start.In(zone.Location()).Format(xcal.FileNameFormat)),
			op:    op,
			kind:  kind,
			stamp: start.In(zone.Location()),
			// One capture in ten has a label outside the table.
			labeled:  rng.Intn(10) > 0,
			startOdo: unit.Meters(next()), endOdo: unit.Meters(next()),
			timezone: zone, highSpeedFrac: next(),
		}
		for range rng.Intn(4) {
			c.handovers = append(c.handovers, dataset.Handover{Time: within(start), Op: op, DurationMS: next()})
		}
		app := AppLog{Op: op, Kind: kind, Start: start, DurationSec: 10, Server: fmt.Sprint(next()), Edge: rng.Intn(2) == 0, Static: rng.Intn(2) == 0}
		switch kind {
		case dataset.ThroughputDL, dataset.ThroughputUL:
			for range rng.Intn(30) {
				c.throughput = append(c.throughput, dataset.ThroughputSample{Time: within(start), Op: op, Mbps: next()})
			}
		case dataset.RTTTest:
			for range rng.Intn(30) {
				app.RTTs = append(app.RTTs, RTTEntry{OffsetMS: float64(rng.Intn(20) * 500), RTTMS: next()})
			}
			for i := range rng.Intn(5) {
				c.rows = append(c.rows, rowPoint{at: start.Add(time.Duration(i) * 2 * time.Second), speedMPH: next()})
			}
		default:
			app.Result = dataset.AppRun{QoE: next()}
		}
		in.Captures = append(in.Captures, c)
		// One capture in eight has no app log, and one app log in eight
		// no capture.
		if rng.Intn(8) > 0 {
			in.Apps = append(in.Apps, app)
		}
		if rng.Intn(8) == 0 {
			app.Start = app.Start.Add(time.Hour)
			in.Apps = append(in.Apps, app)
		}
	}
	return in
}

// referenceMerge is what Merge must build from in, without the passive
// table: the captures reconciled one by one in name order, the order
// match numbers them in, and every table sorted stably by time, ties by
// test ID.
func referenceMerge(in Input) *dataset.DB {
	matches, _ := match(in.Captures, in.Apps)
	db := &dataset.DB{}
	for _, m := range matches {
		c, app, test := m.c, m.app, m.test()
		db.Tests = append(db.Tests, test)
		for _, h := range c.handovers {
			h.TestID = test.ID
			db.Handovers = append(db.Handovers, h)
		}
		switch test.Kind {
		case dataset.ThroughputDL, dataset.ThroughputUL:
			for _, s := range c.throughput {
				s.TestID, s.Edge, s.Static = test.ID, test.Edge, test.Static
				db.Throughput = append(db.Throughput, s)
			}
		case dataset.RTTTest:
			for _, e := range app.RTTs {
				s := dataset.RTTSample{TestID: test.ID, Time: test.Start.Add(unit.DurationFromMS(e.OffsetMS)), Op: c.op, RTTMS: e.RTTMS, Lost: e.Lost, Edge: app.Edge, Static: app.Static}
				if i := rowNear(len(c.rows), s.Time, func(i int) time.Time { return c.rows[i].at }); i >= 0 {
					r := &c.rows[i]
					s.Tech, s.SpeedMPH, s.Odometer, s.Timezone = r.tech, r.speedMPH, r.odo, r.zone
				}
				db.RTT = append(db.RTT, s)
			}
		default:
			db.AppRuns = append(db.AppRuns, appRun(&test, app, c))
		}
	}
	slices.SortStableFunc(db.Throughput, func(a, b dataset.ThroughputSample) int { return byTimeID(a.Time, a.TestID, b.Time, b.TestID) })
	slices.SortStableFunc(db.RTT, func(a, b dataset.RTTSample) int { return byTimeID(a.Time, a.TestID, b.Time, b.TestID) })
	slices.SortStableFunc(db.Handovers, func(a, b dataset.Handover) int { return byTimeID(a.Time, a.TestID, b.Time, b.TestID) })
	slices.SortStableFunc(db.AppRuns, func(a, b dataset.AppRun) int { return byTimeID(a.Start, a.TestID, b.Start, b.TestID) })
	return db
}

// byTimeID orders rows by time, ties by test ID.
func byTimeID(ta time.Time, ia int, tb time.Time, ib int) int {
	switch {
	case ta.Before(tb):
		return -1
	case tb.Before(ta):
		return 1
	}
	return ia - ib
}

// TestMergeMatchesStableSort pins Merge's one pass to its reference,
// captures reconciled in name order and each table then sorted stably,
// over random inputs. A table with no rows must stay nil, as the
// reference's, and the others must be allocated at their exact size.
func TestMergeMatchesStableSort(t *testing.T) {
	rng := simrand.New(11).Fork("merge-reference")
	empty := map[string]int{}
	for trial := range 300 {
		seed := rng.Int63()
		want := referenceMerge(randomInput(rand.New(rand.NewSource(seed))))
		in := randomInput(rand.New(rand.NewSource(seed)))
		got, rep := merge(t, in)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (seed %d): Merge of %d captures and %d app logs differs from the reference (%d matched)", trial, seed, len(in.Captures), len(in.Apps), rep.Matched)
		}
		for name, n := range map[string][2]int{
			"tests":      {len(got.Tests), cap(got.Tests)},
			"handovers":  {len(got.Handovers), cap(got.Handovers)},
			"throughput": {len(got.Throughput), cap(got.Throughput)},
			"rtt":        {len(got.RTT), cap(got.RTT)},
			"appruns":    {len(got.AppRuns), cap(got.AppRuns)},
		} {
			if n[0] != n[1] {
				t.Fatalf("trial %d: %s table has %d rows in room for %d", trial, name, n[0], n[1])
			}
			if n[0] == 0 {
				empty[name]++
			}
		}
	}
	for _, name := range []string{"tests", "handovers", "throughput", "rtt", "appruns"} {
		if empty[name] == 0 {
			t.Errorf("no trial left the %s table empty", name)
		}
	}
}

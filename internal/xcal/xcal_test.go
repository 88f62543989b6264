package xcal

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/nuwins/cellwheels/internal/deploy"
	"github.com/nuwins/cellwheels/internal/geo"
	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/ran"
	"github.com/nuwins/cellwheels/internal/simrand"
	"github.com/nuwins/cellwheels/internal/unit"
)

func TestRecorderFileNameUsesLocalTime(t *testing.T) {
	r := NewRecorder(radio.Verizon)
	// 16:00 UTC is 09:00 Pacific.
	now := time.Date(2022, 8, 8, 16, 0, 0, 0, time.UTC)
	r.StartFile("DL", now, geo.Pacific)
	f := r.CloseFile()
	if !strings.HasPrefix(f.Name, "V_DL_20220808_090000") {
		t.Errorf("file name = %q, want local 09:00 stamp", f.Name)
	}
	if !strings.HasSuffix(f.Name, ".drm") {
		t.Errorf("file name = %q, want .drm suffix", f.Name)
	}
	if want := time.Date(2022, 8, 8, 9, 0, 0, 0, time.UTC); f.Op != radio.Verizon || f.Label != "DL" || f.Stamp != want {
		t.Errorf("identity = %v %q %v, want V DL with the naive stamp %v", f.Op, f.Label, f.Stamp, want)
	}
}

func TestRecorderContentUsesEDT(t *testing.T) {
	r := NewRecorder(radio.Verizon)
	now := time.Date(2022, 8, 8, 16, 0, 0, 0, time.UTC) // 12:00 EDT
	r.StartFile("DL", now, geo.Pacific)
	st := ran.LinkState{Time: now, Tech: radio.NRMid, CellID: "V-5G-mid-0001", RSRP: -95}
	wp := geo.DefaultRoute().At(0)
	// Feed exactly one 500 ms window.
	for i := 0; i < 10; i++ {
		st.Time = now.Add(time.Duration(i) * 50 * time.Millisecond)
		r.Observe(50*time.Millisecond, st, wp, 30, 10*unit.KB)
	}
	f := r.CloseFile()
	if len(f.Rows) == 0 {
		t.Fatal("no rows")
	}
	if got := f.Rows[0].Time; got != now {
		t.Errorf("row time = %v, want %v", got, now)
	}
	var buf bytes.Buffer
	if err := f.WriteDRM(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("08/08/2022 12:00:00.000")) {
		t.Errorf(".drm lacks the EDT noon content stamp:\n%q", buf.Bytes())
	}
}

func TestRecorderSamplesEvery500ms(t *testing.T) {
	r := NewRecorder(radio.TMobile)
	now := time.Date(2022, 8, 10, 18, 0, 0, 0, time.UTC)
	r.StartFile("UL", now, geo.Central)
	st := ran.LinkState{Time: now, Tech: radio.LTEA}
	wp := geo.DefaultRoute().At(1000 * unit.Kilometer)
	ticks := int(30 * time.Second / (50 * time.Millisecond))
	for i := 0; i < ticks; i++ {
		st.Time = now.Add(time.Duration(i) * 50 * time.Millisecond)
		r.Observe(50*time.Millisecond, st, wp, 65, 50*unit.KB)
	}
	f := r.CloseFile()
	if len(f.Rows) != 60 {
		t.Errorf("rows in 30 s = %d, want 60", len(f.Rows))
	}
}

func TestRecorderThroughputAccounting(t *testing.T) {
	r := NewRecorder(radio.ATT)
	now := time.Date(2022, 8, 10, 18, 0, 0, 0, time.UTC)
	r.StartFile("DL", now, geo.Mountain)
	st := ran.LinkState{Time: now}
	wp := geo.DefaultRoute().At(800 * unit.Kilometer)
	// 62.5 KB per 50 ms tick = 10 Mbps.
	for i := 0; i < 10; i++ {
		st.Time = now.Add(time.Duration(i) * 50 * time.Millisecond)
		r.Observe(50*time.Millisecond, st, wp, 70, unit.Bytes(62500))
	}
	f := r.CloseFile()
	if len(f.Rows) != 1 {
		t.Fatalf("rows = %d", len(f.Rows))
	}
	if got := f.Rows[0].AppMbps; got < 9.9 || got > 10.1 {
		t.Errorf("AppMbps = %v, want 10", got)
	}
}

func TestRecorderNotRecordingIgnoresObserve(t *testing.T) {
	r := NewRecorder(radio.ATT)
	if r.Recording() {
		t.Error("recording before StartFile")
	}
	r.Observe(50*time.Millisecond, ran.LinkState{}, geo.Waypoint{}, 0, 1000)
	r.LogHandover(ran.HandoverEvent{})
	f := r.CloseFile()
	if f.Name != "" || len(f.Rows) != 0 {
		t.Errorf("phantom file: %+v", f)
	}
}

func TestRecorderLogsHandovers(t *testing.T) {
	r := NewRecorder(radio.Verizon)
	now := time.Date(2022, 8, 9, 20, 0, 0, 0, time.UTC)
	r.StartFile("DL", now, geo.Mountain)
	r.LogHandover(ran.HandoverEvent{
		Start: now.Add(time.Second), Duration: 53 * time.Millisecond,
		FromTech: radio.NRMid, ToTech: radio.LTEA,
		FromCell: "V-5G-mid-0002", ToCell: "V-LTE-A-0033",
	})
	f := r.CloseFile()
	if len(f.Signals) != 1 {
		t.Fatalf("signals = %d", len(f.Signals))
	}
	sig := f.Signals[0]
	if sig.Event != "HO" || sig.FromTech != radio.NRMid || sig.ToTech != radio.LTEA {
		t.Errorf("signal = %+v", sig)
	}
	if sig.DurationMS != 53 {
		t.Errorf("duration = %v", sig.DurationMS)
	}
	if want := now.Add(time.Second); sig.Time != want {
		t.Errorf("signal time = %v, want %v", sig.Time, want)
	}
}

func TestHandoverLoggerProducesRows(t *testing.T) {
	route := geo.DefaultRoute()
	rng := simrand.New(3)
	m := deploy.NewMap(radio.ATT, route, rng)
	l := NewHandoverLogger(ran.UEConfig{Op: radio.ATT, Map: m}, rng)
	drive := geo.NewDrive(route, geo.DefaultDriveConfig(), rng)
	for i := 0; i < int(2*time.Minute/(50*time.Millisecond)); i++ {
		ds := drive.Step(50 * time.Millisecond)
		l.Step(ds.Time, ds.Waypoint, ds.Speed.MPH(), 50*time.Millisecond)
	}
	rows := l.Rows()
	if len(rows) < 110 || len(rows) > 130 {
		t.Errorf("rows in 2 min = %d, want ≈120", len(rows))
	}
	// Rows drains the log: a second call without a Step has nothing.
	if again := l.Rows(); again != nil {
		t.Errorf("second Rows() = %d rows, want nil after the drain", len(again))
	}
	for i, row := range rows {
		if row.Zone != geo.Pacific {
			t.Errorf("zone = %v", row.Zone)
		}
		// The app logs whole seconds, one row a second.
		if row.Time.Nanosecond() != 0 || i > 0 && row.Time.Sub(rows[i-1].Time) != time.Second {
			t.Errorf("row %d at %v", i, row.Time)
		}
		// AT&T idle must never show 5G (Fig 1d).
		if row.Tech.Is5G() {
			t.Errorf("passive AT&T row on %v", row.Tech)
		}
	}
	if len(rows) > 0 && rows[len(rows)-1].CellID == "" {
		t.Errorf("last passive row %+v has no serving cell", rows[len(rows)-1])
	}
}

func TestHandoverLoggerSeesFewer5GThanActive(t *testing.T) {
	// The Fig 1 disparity, end to end at the logger level, for Verizon.
	route := geo.DefaultRoute()
	rng := simrand.New(4)
	m := deploy.NewMap(radio.Verizon, route, rng)
	l := NewHandoverLogger(ran.UEConfig{Op: radio.Verizon, Map: m}, rng)
	active := ran.NewUE(ran.UEConfig{Op: radio.Verizon, Map: m}, rng.Fork("active"))
	drive := geo.NewDrive(route, geo.DefaultDriveConfig(), rng)
	active.SetTraffic(deploy.HeavyDL, drive.State().Time, drive.State().Waypoint)

	passive5G, active5G, n := 0, 0, 0
	for i := 0; i < int(30*time.Minute/(50*time.Millisecond)); i++ {
		ds := drive.Step(50 * time.Millisecond)
		l.Step(ds.Time, ds.Waypoint, ds.Speed.MPH(), 50*time.Millisecond)
		st := active.Step(ds.Time, ds.Waypoint, ds.Speed.MPH(), 50*time.Millisecond)
		if st.Tech.Is5G() {
			active5G++
		}
		if l.UE.Tech().Is5G() {
			passive5G++
		}
		n++
	}
	if active5G == 0 {
		t.Skip("no 5G encountered in this stretch")
	}
	if passive5G >= active5G {
		t.Errorf("passive 5G ticks %d not below active %d", passive5G, active5G)
	}
}

// cloneFile copies a closed file's tables, which its recorder reuses
// for the next capture.
func cloneFile(f File) File {
	f.Rows, f.Signals = slices.Clone(f.Rows), slices.Clone(f.Signals)
	return f
}

// raceEnabled reports a -race build. Its sync.Pool drops items at
// random, so the file name's fmt.Sprintf allocates a printer now and
// then, and allocation counts are not exact.
var raceEnabled bool

// TestRecorderReusesCaptureBuffer: after a warm-up capture, a capture of
// the same length records into the tables the last one used, so a cycle
// of StartFile, observes and CloseFile allocates only what an empty
// cycle does (the file name), and no row or signal table.
func TestRecorderReusesCaptureBuffer(t *testing.T) {
	rec := NewRecorder(opForTest())
	st := stateForTest()
	ds := geo.DriveState{Waypoint: wpForTest()}
	capture := func(ticks int) File {
		now := testStart()
		rec.StartFile("DL", now, zoneForTest())
		for i := 0; i < ticks; i++ {
			if i == ticks/2 {
				rec.LogHandover(ran.HandoverEvent{Start: now, Duration: 41 * time.Millisecond, FromTech: st.Tech, ToTech: st.Tech})
			}
			st.Time, ds.Time = now, now
			rec.ObserveDrive(tickForTest(), &st, &ds, 4096)
			now = now.Add(tickForTest())
		}
		return rec.CloseFile()
	}
	const ticks = 600 // a 30 s test: 60 rows
	warm := capture(ticks)
	if len(warm.Rows) != 60 || len(warm.Signals) != 1 {
		t.Fatalf("warm-up capture has %d rows and %d signals, want 60 and 1", len(warm.Rows), len(warm.Signals))
	}
	if !raceEnabled {
		empty := testing.AllocsPerRun(20, func() { capture(0) })
		full := testing.AllocsPerRun(20, func() { capture(ticks) })
		if full != empty {
			t.Errorf("a %d-tick capture cycle allocates %v times, an empty one %v", ticks, full, empty)
		}
	}
	if again := capture(ticks); &again.Rows[0] != &warm.Rows[0] || &again.Signals[0] != &warm.Signals[0] {
		t.Error("a capture of the same length recorded into new tables")
	}
}

// TestDriveFormsMatchValueForms pins the in-place forms the campaign
// lanes call to the value forms: a UE stepped by StepDrive and recorded
// by ObserveDrive, and a logger stepped by StepDrive and drained once a
// minute, log exactly what UE.Step, Observe and Step do over ten minutes
// of the drive, tests opening and closing along the way. The drained
// logger keeps logging into its first buffer.
func TestDriveFormsMatchValueForms(t *testing.T) {
	route := geo.DefaultRoute()
	m := deploy.NewMap(radio.TMobile, route, simrand.New(6))
	cfg := ran.UEConfig{Op: radio.TMobile, Map: m}
	const dt = 50 * time.Millisecond
	type rig struct {
		ue     *ran.UE
		rec    *Recorder
		logger *HandoverLogger
		files  []File
		rows   []LoggerRow
	}
	newRig := func() *rig {
		rng := simrand.New(7)
		return &rig{ue: ran.NewUE(cfg, rng.Fork("active")), rec: NewRecorder(radio.TMobile), logger: NewHandoverLogger(cfg, rng)}
	}
	byValue, inPlace := newRig(), newRig()
	drive := geo.NewDrive(route, geo.DefaultDriveConfig(), simrand.New(8))
	var buf *LoggerRow
	ticks := int(10 * time.Minute / dt)
	for i := 0; i < ticks; i++ {
		ds := drive.Step(dt)
		for _, r := range []*rig{byValue, inPlace} {
			if i%600 == 100 {
				r.rec.StartFile("DL", ds.Time, ds.Waypoint.Timezone)
			}
		}
		st := byValue.ue.Step(ds.Time, ds.Waypoint, ds.Speed.MPH(), dt)
		byValue.rec.Observe(dt, st, ds.Waypoint, ds.Speed.MPH(), unit.Bytes(i%7)*unit.KB)
		byValue.logger.Step(ds.Time, ds.Waypoint, ds.Speed.MPH(), dt)
		ref := inPlace.ue.StepDrive(&ds, dt)
		inPlace.rec.ObserveDrive(dt, ref, &ds, unit.Bytes(i%7)*unit.KB)
		inPlace.logger.StepDrive(&ds, dt)
		if *ref != st {
			t.Fatalf("tick %d: StepDrive gives %+v, Step %+v", i, *ref, st)
		}
		for _, r := range []*rig{byValue, inPlace} {
			if i%600 == 500 {
				r.files = append(r.files, cloneFile(r.rec.CloseFile()))
			}
		}
		if i%1200 == 1199 {
			byValue.rows = append(byValue.rows, byValue.logger.Rows()...)
			rows := inPlace.logger.Rows()
			if buf == nil {
				buf = &rows[0]
			} else if &rows[0] != buf {
				t.Errorf("tick %d: the logger grew a new buffer after a drain", i)
			}
			inPlace.rows = append(inPlace.rows, rows...)
		}
	}
	if len(byValue.files) != 20 || len(byValue.rows) != 600 {
		t.Fatalf("%d files and %d logger rows in ten minutes, want 20 and 600", len(byValue.files), len(byValue.rows))
	}
	if !reflect.DeepEqual(inPlace.files, byValue.files) {
		t.Error("ObserveDrive's files differ from Observe's")
	}
	if !reflect.DeepEqual(inPlace.rows, byValue.rows) {
		t.Error("the logger's StepDrive rows differ from Step's")
	}
}

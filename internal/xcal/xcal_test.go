package xcal

import (
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
	if !strings.HasPrefix(f.Rows[0].TimeEDT, "08/08/2022 12:00:00") {
		t.Errorf("content timestamp = %q, want EDT noon", f.Rows[0].TimeEDT)
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
	if sig.Event != "HO" || sig.FromTech != "5G-mid" || sig.ToTech != "LTE-A" {
		t.Errorf("signal = %+v", sig)
	}
	if sig.DurationMS != 53 {
		t.Errorf("duration = %v", sig.DurationMS)
	}
	if !strings.HasPrefix(sig.TimeEDT, "08/09/2022 16:00:01") {
		t.Errorf("signal time = %q, want EDT", sig.TimeEDT)
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
	// Rows hands the log over: the logger keeps no reference to it.
	if again := l.Rows(); again != nil {
		t.Errorf("second Rows() = %d rows, want nil after the hand-over", len(again))
	}
	for _, row := range rows {
		if row.Zone != "Pacific" {
			t.Errorf("zone = %q", row.Zone)
		}
		if _, err := time.Parse(LoggerFormat, row.TimeLocal); err != nil {
			t.Errorf("bad local time %q: %v", row.TimeLocal, err)
		}
		// AT&T idle must never show 5G (Fig 1d).
		if strings.HasPrefix(row.Tech, "5G") {
			t.Errorf("passive AT&T row on %q", row.Tech)
		}
	}
	// The logger steps only the UE's mobility: no load, SINR or capacity.
	if st := l.UE.State(); st.CellID == "" || st.Load != 0 || st.SINR != 0 || st.CapacityDL != 0 || st.CapacityUL != 0 {
		t.Errorf("passive UE state %+v, want a serving cell and no link KPIs", st)
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

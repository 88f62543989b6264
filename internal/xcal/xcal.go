// Package xcal emulates the study's cross-layer logging instruments.
//
// The Recorder stands in for an Accuver XCAL Solo attached to a phone: it
// samples the full PHY KPI surface every 500 ms and logs control-plane
// signaling (handovers) into ".drm"-style captures whose *names* carry
// local-time stamps — the mismatch §B describes, which the logsync
// package must undo. Their rows and signals log typed instants and
// technologies; only the .drm encoder (drm.go) renders them as text, the
// instants in fixed EDT as the real tool stamped file contents, and
// nothing reads that text back.
//
// The HandoverLogger stands in for the three extra unrooted phones that
// passively logged coverage for the whole trip over idle ICMP traffic
// (§3). The pings only kept the radio awake and their results were never
// logged, so they are modeled by the UE's idle traffic profile, not
// simulated. Nothing reads its log as text, so its rows stay typed.
package xcal

import (
	"fmt"
	"time"

	"github.com/nuwins/cellwheels/internal/geo"
	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/ran"
	"github.com/nuwins/cellwheels/internal/simrand"
	"github.com/nuwins/cellwheels/internal/unit"
)

// SampleInterval is XCAL's throughput/KPI logging frequency (§5).
const SampleInterval = 500 * time.Millisecond

// Timestamp formats of the raw logs.
const (
	// ContentFormat is the row timestamp layout, always rendered in EDT
	// regardless of where the vehicle is.
	ContentFormat = "01/02/2006 15:04:05.000"
	// FileNameFormat is the local-time stamp embedded in file names.
	FileNameFormat = "20060102_150405"
)

// EDT is the fixed zone the XCAL software renders content timestamps in.
var EDT = time.FixedZone("EDT", -4*3600)

// Row is one 500 ms KPI sample.
type Row struct {
	Time       time.Time // the window's start, truncated to the millisecond, in UTC
	Tech       radio.Technology
	CellID     string
	RSRP       float64
	SINR       float64
	MCS        int
	CCDL       int
	CCUL       int
	BLER       float64
	Load       float64
	AppMbps    float64 // application-layer throughput in the window
	InHandover bool
	Lat        float64
	Lon        float64
	SpeedMPH   float64
}

// Signal is one control-plane event record.
type Signal struct {
	Time       time.Time // the event's start, truncated to the millisecond, in UTC
	Event      string    // "HO"
	FromTech   radio.Technology
	ToTech     radio.Technology
	FromCell   string
	ToCell     string
	DurationMS float64
}

// File is one .drm-style capture, covering one test. Name renders its
// identity, Op, Label and Stamp, as the real tool named captures.
type File struct {
	Name  string // "<OP>_<label>_<local stamp>.drm"
	Op    radio.Operator
	Label string
	// Stamp is the wall clock the name encodes: local time to the
	// second, its zone dropped (read as UTC), so which of the trip's
	// zones it was taken in is the merge's to find out.
	Stamp   time.Time
	Rows    []Row
	Signals []Signal
}

// Recorder samples a UE's link state into Files. It records into one
// File whose row and signal tables it reuses from capture to capture,
// so a closed file is valid only until the next StartFile.
type Recorder struct {
	op        radio.Operator
	cur       File
	recording bool

	sinceSample time.Duration
	winBytes    unit.Bytes
	winStart    time.Time
	pending     ran.LinkState
	pendingLoc  geo.LatLon
	pendingMPH  float64
	havePending bool
}

// NewRecorder returns a recorder for one operator's phone.
func NewRecorder(op radio.Operator) *Recorder {
	return &Recorder{op: op}
}

// StartFile begins a new capture file. The name embeds the local time at
// the vehicle's position — the format the real tool used, and the reason
// timezone crossings made file matching painful.
func (r *Recorder) StartFile(label string, nowUTC time.Time, zone geo.Timezone) {
	local := nowUTC.In(zone.Location())
	r.cur = File{
		Name:    fmt.Sprintf("%s_%s_%s.drm", r.op.Short(), label, local.Format(FileNameFormat)),
		Op:      r.op,
		Label:   label,
		Stamp:   time.Date(local.Year(), local.Month(), local.Day(), local.Hour(), local.Minute(), local.Second(), 0, time.UTC),
		Rows:    r.cur.Rows[:0],
		Signals: r.cur.Signals[:0],
	}
	r.recording = true
	r.sinceSample = 0
	r.winBytes = 0
	r.winStart = nowUTC
	r.havePending = false
}

// Recording reports whether a file is open.
func (r *Recorder) Recording() bool { return r.recording }

// Observe feeds one simulation tick. Delivered is the application bytes
// moved this tick; every SampleInterval the recorder flushes a row using
// the latest link state.
func (r *Recorder) Observe(dt time.Duration, state ran.LinkState, wp geo.Waypoint, speedMPH float64, delivered unit.Bytes) {
	r.observe(dt, &state, wp.Loc, speedMPH, delivered)
}

// ObserveDrive is Observe at a drive state, reading the link and drive
// states in place; the speed is ds.Speed.MPH(), as a caller of Observe
// would pass it.
func (r *Recorder) ObserveDrive(dt time.Duration, state *ran.LinkState, ds *geo.DriveState, delivered unit.Bytes) {
	r.observe(dt, state, ds.Waypoint.Loc, ds.Speed.MPH(), delivered)
}

// observe keeps the one copy of the link state a partial window's row
// needs at CloseFile, and of the waypoint only its position.
func (r *Recorder) observe(dt time.Duration, state *ran.LinkState, loc geo.LatLon, speedMPH float64, delivered unit.Bytes) {
	if !r.recording {
		return
	}
	r.pending = *state
	r.pendingLoc = loc
	r.pendingMPH = speedMPH
	r.havePending = true
	r.winBytes += delivered
	r.sinceSample += dt
	if r.sinceSample >= SampleInterval {
		r.flushRow()
		r.sinceSample -= SampleInterval
		r.winBytes = 0
		r.winStart = state.Time
	}
}

func (r *Recorder) flushRow() {
	if !r.havePending {
		return
	}
	s := &r.pending
	// The row is filled where it lands, not built aside and copied in.
	r.cur.Rows = append(r.cur.Rows, Row{})
	row := &r.cur.Rows[len(r.cur.Rows)-1]
	row.Time = stamp(r.winStart)
	row.Tech, row.CellID = s.Tech, s.CellID
	row.RSRP, row.SINR = float64(s.RSRP), float64(s.SINR)
	row.MCS, row.CCDL, row.CCUL = s.MCS, s.CCDL, s.CCUL
	row.BLER, row.Load = s.BLER, s.Load
	row.AppMbps = r.winBytes.RateOver(SampleInterval).Mbps()
	row.InHandover = s.InHandover
	row.Lat, row.Lon = r.pendingLoc.Lat, r.pendingLoc.Lon
	row.SpeedMPH = r.pendingMPH
}

// LogHandover records a signaling event into the open file.
func (r *Recorder) LogHandover(ev ran.HandoverEvent) {
	if !r.recording {
		return
	}
	r.cur.Signals = append(r.cur.Signals, Signal{
		Time:       stamp(ev.Start),
		Event:      "HO",
		FromTech:   ev.FromTech,
		ToTech:     ev.ToTech,
		FromCell:   ev.FromCell,
		ToCell:     ev.ToCell,
		DurationMS: unit.Milliseconds(ev.Duration),
	})
}

// stamp is the instant a content stamp records: t to the millisecond,
// in UTC.
func stamp(t time.Time) time.Time { return t.Truncate(time.Millisecond).UTC() }

// CloseFile flushes any partial window and returns the finished file.
// Its Rows and Signals are the recorder's own tables, not copies: they
// are valid until the next StartFile, which records into them again, so
// a caller that keeps a file past that must copy them.
func (r *Recorder) CloseFile() File {
	if !r.recording {
		return File{}
	}
	if r.sinceSample > 0 && r.winBytes > 0 {
		r.flushRow()
	}
	r.recording = false
	return r.cur
}

// Release forgets the tables the recorder reuses, so that a recorder
// whose trip is over pins none.
func (r *Recorder) Release() {
	r.recording = false
	r.cur = File{}
}

// LoggerRow is one 1 Hz observation from a passive handover-logger phone.
type LoggerRow struct {
	Time     time.Time // the tick's instant, truncated to the second as the app logs it
	Zone     geo.Timezone
	Tech     radio.Technology
	CellID   string
	Loc      geo.LatLon
	SpeedMPH float64
}

// HandoverLogger is one passive phone: it records technology/cell/GPS
// once per second, so it steps only its UE's mobility (ran.UE.Move). The
// UE's idle traffic profile stands for the ICMP pings that kept the
// phone's radio awake.
type HandoverLogger struct {
	UE    *ran.UE
	rows  []LoggerRow
	since time.Duration
}

// NewHandoverLogger attaches a passive phone to a network. The full UE
// config is taken so ablations (e.g. ForceBest) reach the passive phones
// as well as the active ones.
func NewHandoverLogger(cfg ran.UEConfig, rng *simrand.Source) *HandoverLogger {
	return &HandoverLogger{UE: ran.NewUE(cfg, rng.Fork("hologger/"+cfg.Op.Short()))}
}

// Step advances the logger one simulation tick.
func (l *HandoverLogger) Step(now time.Time, wp geo.Waypoint, speedMPH float64, dt time.Duration) {
	tech, cell := l.UE.Move(now, wp)
	l.log(now, &wp, speedMPH, dt, tech, cell)
}

// StepDrive is Step at a drive state, reading it in place; the speed is
// ds.Speed.MPH(), as a caller of Step would pass it.
func (l *HandoverLogger) StepDrive(ds *geo.DriveState, dt time.Duration) {
	tech, cell := l.UE.Move(ds.Time, ds.Waypoint)
	l.log(ds.Time, &ds.Waypoint, ds.Speed.MPH(), dt, tech, cell)
}

// log logs a row once a second of ticks has passed.
func (l *HandoverLogger) log(now time.Time, wp *geo.Waypoint, speedMPH float64, dt time.Duration, tech radio.Technology, cell string) {
	l.since += dt
	if l.since >= time.Second {
		l.since -= time.Second
		l.rows = append(l.rows, LoggerRow{
			Time:     now.Truncate(time.Second),
			Zone:     wp.Timezone,
			Tech:     tech,
			CellID:   cell,
			Loc:      wp.Loc,
			SpeedMPH: speedMPH,
		})
	}
}

// Rows returns the rows logged since the last call, nil if there are
// none. The slice is the logger's own buffer, not a copy: it is valid
// until the next Step, which logs into the same buffer again, so a
// caller that drains the log after every run of Steps never makes the
// logger grow a new one.
func (l *HandoverLogger) Rows() []LoggerRow {
	rows := l.rows
	if len(rows) == 0 {
		return nil
	}
	l.rows = rows[:0]
	return rows
}

// Close is the last Rows: it returns the rows logged since the last call
// and forgets the buffer, so that a logger whose trip is over pins none.
func (l *HandoverLogger) Close() []LoggerRow {
	rows := l.rows
	l.rows = nil
	return rows
}

// Package xcal emulates the study's cross-layer logging instruments.
//
// The Recorder stands in for an Accuver XCAL Solo attached to a phone: it
// samples the full PHY KPI surface every 500 ms and logs control-plane
// signaling (handovers), writing ".drm"-style files whose *names* carry
// local-time stamps while their *contents* carry timestamps in fixed EDT —
// exactly the mismatch §B describes, which the logsync package must undo.
//
// The HandoverLogger stands in for the three extra unrooted phones that
// passively logged coverage for the whole trip over idle ICMP traffic
// (§3). The pings only kept the radio awake and their results were never
// logged, so they are modeled by the UE's idle traffic profile, not
// simulated. Its rows use a third format: naive local-time strings plus
// a separate zone-name column.
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
	// LoggerFormat is the handover-logger app's naive local-time layout.
	LoggerFormat = "2006-01-02 15:04:05"
)

// EDT is the fixed zone the XCAL software renders content timestamps in.
var EDT = time.FixedZone("EDT", -4*3600)

// Row is one 500 ms KPI sample.
type Row struct {
	TimeEDT    string // ContentFormat in EDT
	Tech       string
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
	TimeEDT    string
	Event      string // "HO"
	FromTech   string
	ToTech     string
	FromCell   string
	ToCell     string
	DurationMS float64
}

// File is one .drm-style capture, covering one test.
type File struct {
	Name    string // "<OP>_<label>_<local stamp>.drm"
	Op      string
	Label   string
	Rows    []Row
	Signals []Signal
}

// Recorder samples a UE's link state into Files.
type Recorder struct {
	op  radio.Operator
	cur *File

	sinceSample time.Duration
	winBytes    unit.Bytes
	winStart    time.Time
	pending     ran.LinkState
	pendingWP   geo.Waypoint
	pendingMPH  float64
	havePending bool

	// rowHint is, per label, the row count of the last file closed: a
	// label's tests run for the same time, so a new file reserves that
	// many rows instead of growing its table row by row.
	rowHint map[string]int
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
	r.cur = &File{
		Name:  fmt.Sprintf("%s_%s_%s.drm", r.op.Short(), label, local.Format(FileNameFormat)),
		Op:    r.op.Short(),
		Label: label,
	}
	if n := r.rowHint[label]; n > 0 {
		r.cur.Rows = make([]Row, 0, n)
	}
	r.sinceSample = 0
	r.winBytes = 0
	r.winStart = nowUTC
	r.havePending = false
}

// Recording reports whether a file is open.
func (r *Recorder) Recording() bool { return r.cur != nil }

// Observe feeds one simulation tick. Delivered is the application bytes
// moved this tick; every SampleInterval the recorder flushes a row using
// the latest link state.
func (r *Recorder) Observe(dt time.Duration, state ran.LinkState, wp geo.Waypoint, speedMPH float64, delivered unit.Bytes) {
	if r.cur == nil {
		return
	}
	r.pending = state
	r.pendingWP = wp
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
	s := r.pending
	r.cur.Rows = append(r.cur.Rows, Row{
		TimeEDT:    contentTime(r.winStart),
		Tech:       s.Tech.String(),
		CellID:     s.CellID,
		RSRP:       float64(s.RSRP),
		SINR:       float64(s.SINR),
		MCS:        s.MCS,
		CCDL:       s.CCDL,
		CCUL:       s.CCUL,
		BLER:       s.BLER,
		Load:       s.Load,
		AppMbps:    r.winBytes.RateOver(SampleInterval).Mbps(),
		InHandover: s.InHandover,
		Lat:        r.pendingWP.Loc.Lat,
		Lon:        r.pendingWP.Loc.Lon,
		SpeedMPH:   r.pendingMPH,
	})
}

// LogHandover records a signaling event into the open file.
func (r *Recorder) LogHandover(ev ran.HandoverEvent) {
	if r.cur == nil {
		return
	}
	r.cur.Signals = append(r.cur.Signals, Signal{
		TimeEDT:    contentTime(ev.Start),
		Event:      "HO",
		FromTech:   ev.FromTech.String(),
		ToTech:     ev.ToTech.String(),
		FromCell:   ev.FromCell,
		ToCell:     ev.ToCell,
		DurationMS: unit.Milliseconds(ev.Duration),
	})
}

// CloseFile flushes any partial window and returns the finished file.
func (r *Recorder) CloseFile() File {
	if r.cur == nil {
		return File{}
	}
	if r.sinceSample > 0 && r.winBytes > 0 {
		r.flushRow()
	}
	f := *r.cur
	r.cur = nil
	if r.rowHint == nil {
		r.rowHint = map[string]int{}
	}
	r.rowHint[f.Label] = len(f.Rows)
	return f
}

// LoggerRow is one 1 Hz observation from a passive handover-logger phone.
type LoggerRow struct {
	TimeLocal string // LoggerFormat, naive local time
	Zone      string // zone name ("Pacific", ...)
	Tech      string
	CellID    string
	Lat       float64
	Lon       float64
	SpeedMPH  float64
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
	l.since += dt
	if l.since >= time.Second {
		l.since -= time.Second
		l.rows = append(l.rows, LoggerRow{
			TimeLocal: loggerTime(now, wp.Timezone.Location()),
			Zone:      wp.Timezone.String(),
			Tech:      tech.String(),
			CellID:    cell,
			Lat:       wp.Loc.Lat,
			Lon:       wp.Loc.Lon,
			SpeedMPH:  speedMPH,
		})
	}
}

// Rows hands over the passive coverage log: it returns the logger's own
// slice rather than a copy, which on the full route is a quarter-million
// rows per operator, and forgets it, so the caller holds the only
// reference. A second call returns only the rows logged since the
// first.
func (l *HandoverLogger) Rows() []LoggerRow {
	rows := l.rows
	l.rows = nil
	return rows
}

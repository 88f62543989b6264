// Package dataset defines the consolidated database the campaign
// produces and the analysis consumes: 500 ms throughput samples joined
// with PHY KPIs, individual RTT samples, handover events, app-run QoE
// records, and passive coverage rows from the handover-logger phones.
//
// The record shapes deliberately mirror what the paper's post-processing
// pipeline extracts from XCAL + app logs, so real drive-test data can be
// loaded into the same structures. Everything serializes to JSON (whole
// database) and CSV (per table).
package dataset

import (
	"fmt"
	"time"

	"github.com/nuwins/cellwheels/internal/geo"
	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/unit"
)

// TestKind identifies one of the round-robin test types (§3).
type TestKind int

// Test kinds.
const (
	ThroughputDL TestKind = iota
	ThroughputUL
	RTTTest
	AppAR
	AppCAV
	AppVideo
	AppGaming
)

// Kinds returns all test kinds in round-robin order.
func Kinds() []TestKind {
	return []TestKind{ThroughputDL, ThroughputUL, RTTTest, AppAR, AppCAV, AppVideo, AppGaming}
}

// String implements fmt.Stringer.
func (k TestKind) String() string {
	switch k {
	case ThroughputDL:
		return "tput-dl"
	case ThroughputUL:
		return "tput-ul"
	case RTTTest:
		return "rtt"
	case AppAR:
		return "app-ar"
	case AppCAV:
		return "app-cav"
	case AppVideo:
		return "app-video"
	case AppGaming:
		return "app-gaming"
	default:
		return fmt.Sprintf("TestKind(%d)", int(k))
	}
}

// Test describes one executed test.
type Test struct {
	ID       int
	Kind     TestKind
	Op       radio.Operator
	Start    time.Time // UTC
	End      time.Time
	StartOdo unit.Meters
	EndOdo   unit.Meters
	Server   string
	Edge     bool // served by a Wavelength edge server
	Static   bool // city baseline rather than driving
	Timezone geo.Timezone
}

// Miles reports the distance driven during the test.
func (t Test) Miles() float64 { return (t.EndOdo - t.StartOdo).Miles() }

// Duration reports the test length.
func (t Test) Duration() time.Duration { return t.End.Sub(t.Start) }

// ThroughputSample is one 500 ms application-layer throughput interval
// joined with the KPIs XCAL logged in the same window.
type ThroughputSample struct {
	TestID    int
	Time      time.Time // UTC, start of the 500 ms window
	Op        radio.Operator
	Dir       radio.Direction
	Mbps      float64
	Tech      radio.Technology
	RSRP      float64 // dBm, primary cell
	SINR      float64 // dB
	MCS       int
	CC        int
	BLER      float64
	Load      float64
	SpeedMPH  float64
	Odometer  unit.Meters
	Timezone  geo.Timezone
	Region    geo.Region
	Handovers int // handovers inside this window
	CellID    string
	Edge      bool
	Static    bool
}

// RTTSample is one ICMP echo result.
type RTTSample struct {
	TestID   int
	Time     time.Time
	Op       radio.Operator
	RTTMS    float64
	Lost     bool
	Tech     radio.Technology
	SpeedMPH float64
	Odometer unit.Meters
	Timezone geo.Timezone
	Edge     bool
	Static   bool
}

// Handover is one recorded handover event.
type Handover struct {
	TestID     int // -1 when outside any test window
	Time       time.Time
	Op         radio.Operator
	DurationMS float64
	FromTech   radio.Technology
	ToTech     radio.Technology
	Odometer   unit.Meters
}

// Vertical reports whether the handover crossed the 4G/5G boundary.
func (h Handover) Vertical() bool { return h.FromTech.Is5G() != h.ToTech.Is5G() }

// AppRun is one application test run's QoE summary. Fields not relevant
// to the app kind are zero.
type AppRun struct {
	TestID     int
	Kind       TestKind
	Op         radio.Operator
	Start      time.Time
	Compressed bool // AR/CAV: frame compression enabled

	// AR/CAV metrics (§7.1).
	E2EMS      float64 // mean end-to-end offload latency
	OffloadFPS float64
	MAP        float64 // AR only: object detection accuracy

	// 360° video metrics (§7.2).
	QoE          float64
	AvgBitrate   float64 // Mbps
	RebufferFrac float64

	// Cloud gaming metrics (§7.3).
	SendBitrate   float64 // Mbps
	NetLatencyMS  float64
	FrameDropFrac float64

	// Context shared by all apps.
	HighSpeedFrac float64 // fraction of run on 5G mid/mmWave
	Edge          bool
	Handovers     int
	Static        bool
}

// CoverageSample is one row from the passive handover-logger phones —
// 1 Hz technology/cell observations under idle ICMP traffic (§3).
type CoverageSample struct {
	Time     time.Time
	Op       radio.Operator
	Tech     radio.Technology
	CellID   string
	Odometer unit.Meters
	Timezone geo.Timezone
	SpeedMPH float64
}

// Meta captures campaign-level context and Table 1 accounting.
type Meta struct {
	Seed          int64
	RouteKm       float64
	Days          int
	Start         time.Time
	BytesRx       unit.Bytes
	BytesTx       unit.Bytes
	RuntimeByOp   map[string]time.Duration
	UniqueCells   map[string]int
	HandoverTotal map[string]int
}

// DB is the consolidated campaign database.
type DB struct {
	Meta       Meta
	Tests      []Test
	Throughput []ThroughputSample
	RTT        []RTTSample
	Handovers  []Handover
	AppRuns    []AppRun
	Passive    []CoverageSample
}

// TestByID finds a test by ID, or nil.
func (db *DB) TestByID(id int) *Test {
	for i := range db.Tests {
		if db.Tests[i].ID == id {
			return &db.Tests[i]
		}
	}
	return nil
}

// ThroughputWhere returns samples matching the predicate.
func (db *DB) ThroughputWhere(keep func(ThroughputSample) bool) []ThroughputSample {
	var out []ThroughputSample
	for _, s := range db.Throughput {
		if keep(s) {
			out = append(out, s)
		}
	}
	return out
}

// TestsWhere returns tests matching the predicate.
func (db *DB) TestsWhere(keep func(Test) bool) []Test {
	var out []Test
	for _, t := range db.Tests {
		if keep(t) {
			out = append(out, t)
		}
	}
	return out
}

// RTTValues extracts the RTT values (ms) of non-lost samples.
func RTTValues(samples []RTTSample) []float64 {
	var out []float64
	for _, s := range samples {
		if !s.Lost {
			out = append(out, s.RTTMS)
		}
	}
	return out
}

// MbpsWhere returns the throughput of the samples matching the
// predicate, in table order, without copying the samples.
func (db *DB) MbpsWhere(keep func(*ThroughputSample) bool) []float64 {
	var out []float64
	for i := range db.Throughput {
		if s := &db.Throughput[i]; keep(s) {
			out = append(out, s.Mbps)
		}
	}
	return out
}

// RTTValuesWhere returns the RTT values (ms) of the non-lost samples
// matching the predicate, in table order, without copying the samples.
func (db *DB) RTTValuesWhere(keep func(*RTTSample) bool) []float64 {
	var out []float64
	for i := range db.RTT {
		if s := &db.RTT[i]; !s.Lost && keep(s) {
			out = append(out, s.RTTMS)
		}
	}
	return out
}

package logsync

import (
	"sort"
	"time"

	"github.com/nuwins/cellwheels/internal/dataset"
	"github.com/nuwins/cellwheels/internal/geo"
	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/unit"
	"github.com/nuwins/cellwheels/internal/xcal"
)

// Capture is one XCAL file normalised on its own: everything Merge needs
// from it that does not depend on which app log it matches. Its rows
// carry their instants, so they resolve without the matcher; only the
// test ID and the matched app's fields (server, edge, static, metrics,
// RTT entries) wait for Merge. A Capture holds no raw row, so the file
// it came from can be dropped as soon as its test ends.
type Capture struct {
	// Name is the file's rendered identity: Merge's sort key, and what
	// Report.UnmatchedFiles lists.
	Name string

	// op, kind and stamp are the identity Name renders; stamp is the
	// naive local wall clock (xcal.File.Stamp). labeled is false for a
	// label outside the label table: such a capture matches no app log.
	op      radio.Operator
	kind    dataset.TestKind
	stamp   time.Time
	labeled bool

	// first is the first row's instant: the recorder stamps it with the
	// test's start, to the millisecond. startOdo, endOdo and timezone
	// stay zero, as the test's fields do, for a capture without rows;
	// first stays zero too.
	first            time.Time
	startOdo, endOdo unit.Meters
	timezone         geo.Timezone

	// handovers has one record per signaling event, and throughput one
	// sample per row of a DL or UL file, with the test ID and the
	// matched app's Edge and Static left for Merge.
	handovers  []dataset.Handover
	throughput []dataset.ThroughputSample
	// rows indexes an RTT file's rows by time, for rowNear.
	rows []rowPoint
	// highSpeedFrac is an app file's share of rows on a high-speed
	// technology.
	highSpeedFrac float64
}

// rowPoint is what an RTT sample reads from the row nearest to it.
type rowPoint struct {
	at       time.Time
	tech     radio.Technology
	speedMPH float64
	odo      unit.Meters
	zone     geo.Timezone
}

// Normalizer converts one lane's captures and passive seconds as they
// are logged, joining their GPS fixes to the route.
type Normalizer struct {
	route *geo.Route
}

// NewNormalizer returns a normaliser that joins rows to route.
func NewNormalizer(route *geo.Route) *Normalizer { return &Normalizer{route: route} }

// Capture normalises one XCAL file. It reads f only while it runs.
func (n *Normalizer) Capture(f *xcal.File) Capture {
	c := Capture{Name: f.Name, op: f.Op, stamp: f.Stamp}
	if c.kind, c.labeled = kindOf(f.Label); !c.labeled {
		return c
	}
	rows, signals := f.Rows, f.Signals
	route := n.route
	if len(rows) > 0 {
		first, last := &rows[0], &rows[len(rows)-1]
		c.first = first.Time
		c.startOdo = route.OdometerOf(geo.LatLon{Lat: first.Lat, Lon: first.Lon})
		c.endOdo = route.OdometerOf(geo.LatLon{Lat: last.Lat, Lon: last.Lon})
		c.timezone = route.At(c.startOdo).Timezone
	}
	if len(signals) > 0 {
		c.handovers = make([]dataset.Handover, len(signals))
		for i := range signals {
			sig := &signals[i]
			c.handovers[i] = dataset.Handover{
				Time: sig.Time, Op: c.op,
				DurationMS: sig.DurationMS,
				FromTech:   sig.FromTech, ToTech: sig.ToTech,
				Odometer: nearestOdo(rows, sig.Time, route),
			}
		}
	}
	switch c.kind {
	case dataset.ThroughputDL, dataset.ThroughputUL:
		dir := radio.Downlink
		if c.kind == dataset.ThroughputUL {
			dir = radio.Uplink
		}
		c.throughput = make([]dataset.ThroughputSample, len(rows))
		for i := range rows {
			c.throughput[i] = throughputSample(c.op, dir, &rows[i], signals, route)
		}
	case dataset.RTTTest:
		c.rows = make([]rowPoint, len(rows))
		for i := range rows {
			r := &rows[i]
			odo := route.OdometerOf(geo.LatLon{Lat: r.Lat, Lon: r.Lon})
			c.rows[i] = rowPoint{at: r.Time, tech: r.Tech, speedMPH: r.SpeedMPH, odo: odo, zone: route.At(odo).Timezone}
		}
	default:
		hs := 0
		for i := range rows {
			if rows[i].Tech.IsHighSpeed() {
				hs++
			}
		}
		if len(rows) > 0 {
			c.highSpeedFrac = float64(hs) / float64(len(rows))
		}
	}
	return c
}

// throughputSample joins one row of a throughput file to the route. The
// test ID and the matched app's Edge and Static are Merge's to set.
func throughputSample(op radio.Operator, dir radio.Direction, r *xcal.Row, signals []xcal.Signal, route *geo.Route) dataset.ThroughputSample {
	odo := route.OdometerOf(geo.LatLon{Lat: r.Lat, Lon: r.Lon})
	wp := route.At(odo)
	cc := r.CCDL
	if dir == radio.Uplink {
		cc = r.CCUL
	}
	hos := 0
	end := r.Time.Add(xcal.SampleInterval)
	for i := range signals {
		if at := signals[i].Time; !at.Before(r.Time) && at.Before(end) {
			hos++
		}
	}
	return dataset.ThroughputSample{
		Time: r.Time, Op: op, Dir: dir,
		Mbps: r.AppMbps, Tech: r.Tech,
		RSRP: r.RSRP, SINR: r.SINR, MCS: r.MCS, CC: cc,
		BLER: r.BLER, Load: r.Load,
		SpeedMPH: r.SpeedMPH, Odometer: odo,
		Timezone: wp.Timezone, Region: wp.Region,
		Handovers: hos, CellID: r.CellID,
	}
}

// rowNear finds the index of the row whose window contains (or is
// closest to) at, of n rows whose times at(i) ascend; -1 when n is 0.
func rowNear(n int, at time.Time, rowAt func(i int) time.Time) int {
	if n == 0 {
		return -1
	}
	i := sort.Search(n, func(i int) bool { return !rowAt(i).Before(at) })
	if i == 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	// Pick the neighbour with smaller skew.
	if rowAt(i).Sub(at) < at.Sub(rowAt(i-1)) {
		return i
	}
	return i - 1
}

func nearestOdo(rows []xcal.Row, at time.Time, route *geo.Route) unit.Meters {
	i := rowNear(len(rows), at, func(i int) time.Time { return rows[i].Time })
	if i < 0 {
		return 0
	}
	return route.OdometerOf(geo.LatLon{Lat: rows[i].Lat, Lon: rows[i].Lon})
}

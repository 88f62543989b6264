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
// from it that does not depend on which app log it matches. Its content
// stamps are fixed EDT, so the file's rows resolve to UTC without the
// matcher; only the test ID and the matched app's fields (server, edge,
// static, metrics, RTT entries) wait for Merge. A Capture holds no raw
// row, so the file it came from can be dropped as soon as its test ends.
type Capture struct {
	Name string

	name    parsedName
	nameErr error // a malformed name: Merge stops at it in name order
	err     error // a content stamp that failed to parse: Merge returns it if the file matches

	// startOdo, endOdo and timezone stay zero, as the test's fields do,
	// for a capture without rows.
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

// Normalizer converts one lane's captures and passive rows as they are
// logged, reusing its scratch rows from one capture to the next. It is
// not safe for concurrent use; each lane owns one.
type Normalizer struct {
	route   *geo.Route
	rows    []normRow
	signals []normSignal
}

// NewNormalizer returns a normaliser that joins rows to route.
func NewNormalizer(route *geo.Route) *Normalizer { return &Normalizer{route: route} }

// Capture normalises one XCAL file. It reads f only while it runs.
func (n *Normalizer) Capture(f *xcal.File) Capture {
	c := Capture{Name: f.Name}
	c.name, c.nameErr = parseFileName(f.Name)
	if c.nameErr != nil {
		return c
	}
	rows, signals, err := normalizeFile(f, n.rows[:0], n.signals[:0])
	if err != nil {
		c.err = err
		return c
	}
	n.rows, n.signals = rows, signals
	route := n.route
	if len(rows) > 0 {
		first, last := rows[0].raw, rows[len(rows)-1].raw
		c.startOdo = route.OdometerOf(geo.LatLon{Lat: first.Lat, Lon: first.Lon})
		c.endOdo = route.OdometerOf(geo.LatLon{Lat: last.Lat, Lon: last.Lon})
		c.timezone = route.At(c.startOdo).Timezone
	}
	op := c.name.op
	if len(signals) > 0 {
		c.handovers = make([]dataset.Handover, len(signals))
		for i, sig := range signals {
			c.handovers[i] = dataset.Handover{
				Time: sig.at, Op: op,
				DurationMS: sig.raw.DurationMS,
				FromTech:   sig.fromTech, ToTech: sig.toTech,
				Odometer: nearestOdo(rows, sig.at, route),
			}
		}
	}
	switch kind := kindByLabel[c.name.label]; kind {
	case dataset.ThroughputDL, dataset.ThroughputUL:
		dir := radio.Downlink
		if kind == dataset.ThroughputUL {
			dir = radio.Uplink
		}
		c.throughput = make([]dataset.ThroughputSample, len(rows))
		for i := range rows {
			c.throughput[i] = throughputSample(op, dir, &rows[i], signals, route)
		}
	case dataset.RTTTest:
		c.rows = make([]rowPoint, len(rows))
		for i, r := range rows {
			odo := route.OdometerOf(geo.LatLon{Lat: r.raw.Lat, Lon: r.raw.Lon})
			c.rows[i] = rowPoint{at: r.at, tech: r.tech, speedMPH: r.raw.SpeedMPH, odo: odo, zone: route.At(odo).Timezone}
		}
	default:
		hs := 0
		for _, r := range rows {
			if r.tech.IsHighSpeed() {
				hs++
			}
		}
		if len(rows) > 0 {
			c.highSpeedFrac = float64(hs) / float64(len(rows))
		}
	}
	return c
}

// Passive converts rows that op's passive phone logged to coverage
// samples and appends them to dst: a copy, apart from the GPS fix's
// join to the route.
func (n *Normalizer) Passive(dst []dataset.CoverageSample, op radio.Operator, rows []xcal.LoggerRow) []dataset.CoverageSample {
	for _, r := range rows {
		dst = append(dst, dataset.CoverageSample{
			Time: r.Time.UTC(), Op: op, Tech: r.Tech, CellID: r.CellID,
			Odometer: n.route.OdometerOf(r.Loc), Timezone: r.Zone, SpeedMPH: r.SpeedMPH,
		})
	}
	return dst
}

// normRow is a parsed XCAL row with UTC time. It refers to the file's
// row rather than copying it.
type normRow struct {
	at   time.Time
	tech radio.Technology
	raw  *xcal.Row
}

// normSignal is a parsed signaling event.
type normSignal struct {
	at       time.Time
	fromTech radio.Technology
	toTech   radio.Technology
	raw      *xcal.Signal
}

// normalizeFile parses f's rows and signals, appending them to rows and
// signals.
func normalizeFile(f *xcal.File, rows []normRow, signals []normSignal) ([]normRow, []normSignal, error) {
	for i := range f.Rows {
		r := &f.Rows[i]
		at, err := ParseContentTime(r.TimeEDT)
		if err != nil {
			return nil, nil, err
		}
		tech, _ := radio.ParseTechnology(r.Tech)
		rows = append(rows, normRow{at: at, tech: tech, raw: r})
	}
	for i := range f.Signals {
		s := &f.Signals[i]
		at, err := ParseContentTime(s.TimeEDT)
		if err != nil {
			return nil, nil, err
		}
		ft, _ := radio.ParseTechnology(s.FromTech)
		tt, _ := radio.ParseTechnology(s.ToTech)
		signals = append(signals, normSignal{at: at, fromTech: ft, toTech: tt, raw: s})
	}
	return rows, signals, nil
}

// throughputSample joins one row of a throughput file to the route. The
// test ID and the matched app's Edge and Static are Merge's to set.
func throughputSample(op radio.Operator, dir radio.Direction, r *normRow, signals []normSignal, route *geo.Route) dataset.ThroughputSample {
	odo := route.OdometerOf(geo.LatLon{Lat: r.raw.Lat, Lon: r.raw.Lon})
	wp := route.At(odo)
	cc := r.raw.CCDL
	if dir == radio.Uplink {
		cc = r.raw.CCUL
	}
	hos := 0
	for _, s := range signals {
		if !s.at.Before(r.at) && s.at.Before(r.at.Add(xcal.SampleInterval)) {
			hos++
		}
	}
	return dataset.ThroughputSample{
		Time: r.at, Op: op, Dir: dir,
		Mbps: r.raw.AppMbps, Tech: r.tech,
		RSRP: r.raw.RSRP, SINR: r.raw.SINR, MCS: r.raw.MCS, CC: cc,
		BLER: r.raw.BLER, Load: r.raw.Load,
		SpeedMPH: r.raw.SpeedMPH, Odometer: odo,
		Timezone: wp.Timezone, Region: wp.Region,
		Handovers: hos, CellID: r.raw.CellID,
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

func nearestOdo(rows []normRow, at time.Time, route *geo.Route) unit.Meters {
	i := rowNear(len(rows), at, func(i int) time.Time { return rows[i].at })
	if i < 0 {
		return 0
	}
	return route.OdometerOf(geo.LatLon{Lat: rows[i].raw.Lat, Lon: rows[i].raw.Lon})
}

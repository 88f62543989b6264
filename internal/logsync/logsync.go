// Package logsync is the reproduction of the paper's "sophisticated
// software" for challenge C2 (§3, §B): it reconciles logs whose
// timestamps come in three inconsistent formats — XCAL file names stamped
// in the vehicle's local time, XCAL file contents stamped in fixed EDT,
// and application logs stamped either in UTC or in naive local time —
// across the four timezones the trip crosses, matches each application
// log to its XCAL capture, and emits the consolidated database the
// analysis runs on.
//
// The matcher never sees test identifiers: like the real pipeline, it has
// only operator, test label, and timestamps to go on. Matching a file
// name means trying each of the four candidate timezones and accepting
// the interpretation that lines up with an application log of the same
// operator and kind.
package logsync

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/nuwins/cellwheels/internal/dataset"
	"github.com/nuwins/cellwheels/internal/geo"
	"github.com/nuwins/cellwheels/internal/obs"
	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/unit"
	"github.com/nuwins/cellwheels/internal/xcal"
)

// StampKind says how an application log rendered its start timestamp.
type StampKind int

// Stamp kinds.
const (
	// StampUTC is RFC3339 in UTC.
	StampUTC StampKind = iota
	// StampLocalNaive is xcal.LoggerFormat local time with a separate
	// zone-name column.
	StampLocalNaive
)

// RTTEntry is one echo result inside an RTT application log, stored as an
// offset from the test start.
type RTTEntry struct {
	OffsetMS float64
	RTTMS    float64
	Lost     bool
}

// AppLog is one application-side test log.
type AppLog struct {
	Op         string // operator short code ("V", "T", "A")
	Kind       string // file label: DL, UL, RTT, AR, CAV, VID, GAME
	Server     string
	Edge       bool
	Static     bool
	Compressed bool

	StartStamp  string
	Stamp       StampKind
	Zone        string // zone name for StampLocalNaive
	DurationSec float64

	RTTs    []RTTEntry
	Metrics map[string]float64
}

// StartUTC resolves the log's start instant.
func (l AppLog) StartUTC() (time.Time, error) {
	switch l.Stamp {
	case StampUTC:
		t, err := time.Parse(time.RFC3339Nano, l.StartStamp)
		if err != nil {
			return time.Time{}, fmt.Errorf("logsync: utc stamp %q: %w", l.StartStamp, err)
		}
		return t.UTC(), nil
	default:
		z, ok := zoneByName(l.Zone)
		if !ok {
			return time.Time{}, fmt.Errorf("logsync: unknown zone %q", l.Zone)
		}
		t, err := time.ParseInLocation(xcal.LoggerFormat, l.StartStamp, z.Location())
		if err != nil {
			return time.Time{}, fmt.Errorf("logsync: local stamp %q: %w", l.StartStamp, err)
		}
		return t.UTC(), nil
	}
}

func zoneByName(name string) (geo.Timezone, bool) {
	for z := geo.Pacific; z <= geo.Eastern; z++ {
		if z.String() == name {
			return z, true
		}
	}
	return geo.Pacific, false
}

// kindByLabel maps file labels to test kinds.
var kindByLabel = map[string]dataset.TestKind{
	"DL":   dataset.ThroughputDL,
	"UL":   dataset.ThroughputUL,
	"RTT":  dataset.RTTTest,
	"AR":   dataset.AppAR,
	"CAV":  dataset.AppCAV,
	"VID":  dataset.AppVideo,
	"GAME": dataset.AppGaming,
}

// LabelOf renders a test kind as its file label.
func LabelOf(k dataset.TestKind) string {
	for l, kk := range kindByLabel {
		if kk == k {
			return l
		}
	}
	return "?"
}

// ParseContentTime parses an XCAL content timestamp (fixed EDT) to UTC.
func ParseContentTime(s string) (time.Time, error) {
	t, err := time.ParseInLocation(xcal.ContentFormat, s, xcal.EDT)
	if err != nil {
		return time.Time{}, fmt.Errorf("logsync: content time %q: %w", s, err)
	}
	return t.UTC(), nil
}

// parsedName is the decomposition of an XCAL file name.
type parsedName struct {
	op    radio.Operator
	label string
	naive time.Time // wall-clock with unknown zone
}

// parseFileName decomposes "<OP>_<label>_<stamp>.drm".
func parseFileName(name string) (parsedName, error) {
	base := strings.TrimSuffix(name, ".drm")
	parts := strings.Split(base, "_")
	if len(parts) != 4 {
		return parsedName{}, fmt.Errorf("logsync: malformed file name %q", name)
	}
	op, ok := radio.ParseOperatorShort(parts[0])
	if !ok {
		return parsedName{}, fmt.Errorf("logsync: unknown operator in %q", name)
	}
	if _, ok := kindByLabel[parts[1]]; !ok {
		return parsedName{}, fmt.Errorf("logsync: unknown label in %q", name)
	}
	naive, err := time.Parse(xcal.FileNameFormat, parts[2]+"_"+parts[3])
	if err != nil {
		return parsedName{}, fmt.Errorf("logsync: stamp in %q: %w", name, err)
	}
	return parsedName{op: op, label: parts[1], naive: naive}, nil
}

// matchTolerance is the maximum skew accepted between a file-name stamp
// (under some zone interpretation) and an app log's start.
const matchTolerance = 3 * time.Second

// resolveFileStart tries all four timezones and reports the UTC
// interpretations of a naive file-name stamp.
func resolveFileStart(naive time.Time) [4]time.Time {
	var out [4]time.Time
	for z := geo.Pacific; z <= geo.Eastern; z++ {
		out[z] = time.Date(naive.Year(), naive.Month(), naive.Day(),
			naive.Hour(), naive.Minute(), naive.Second(), naive.Nanosecond(),
			z.Location()).UTC()
	}
	return out
}

// Input bundles everything Merge consumes.
type Input struct {
	Route  *geo.Route
	Files  []xcal.File
	Apps   []AppLog
	Logger map[string][]xcal.LoggerRow // passive rows keyed by operator short code
	Meta   dataset.Meta
	// Obs receives merge statistics (match counts, name-stamp skew, final
	// per-table row counts). Write-only and nil-safe: the merge's output
	// is byte-identical with or without it.
	Obs *obs.Recorder
}

// Report describes merge quality for diagnostics and tests.
type Report struct {
	Matched        int
	UnmatchedFiles []string
	UnmatchedApps  int
}

// Merge reconciles the raw logs into the consolidated database.
//
// The work splits by operator: every file name starts with "<op>_", so
// the name order of all files is the A, T, V concatenation of each
// operator's name order, and a file only ever matches an app log of its
// own operator. Each operator's files and each operator's passive rows
// are therefore reconciled as separate parts, concurrently, with test
// IDs numbered 1..n within a part. A final pass offsets the IDs by the
// matched counts of the parts before and merges the parts' sorted tables
// (see mergeParts). The result is the database a single pass over the
// files in name order, followed by sortDB, would build.
func Merge(in Input) (*dataset.DB, Report, error) {
	if in.Route == nil {
		return nil, Report{}, fmt.Errorf("logsync: nil route")
	}
	defer in.Obs.StartPhase("merge")()
	m := &merger{in: &in, appsByKey: map[appKey][]int{}}
	m.appStarts = make([]time.Time, len(in.Apps))
	m.usedApps = make([]bool, len(in.Apps))
	for i, a := range in.Apps {
		t, err := a.StartUTC()
		if err != nil {
			return nil, Report{}, err
		}
		m.appStarts[i] = t
		// A file only ever matches an app log of its own operator and
		// label, so the matcher scans that bucket of app indices
		// (ascending, as a scan of all apps would visit them).
		k := appKey{a.Op, a.Kind}
		m.appsByKey[k] = append(m.appsByKey[k], i)
	}

	// Deterministic processing order: files sorted by name, each name
	// parsed once. A malformed name ends the list; the files before it
	// are still reconciled, so an earlier file's content error wins.
	files := make([]*xcal.File, len(in.Files))
	for i := range in.Files {
		files[i] = &in.Files[i]
	}
	sort.SliceStable(files, func(i, j int) bool { return files[i].Name < files[j].Name })
	var fileParts []*filePart
	var nameErr error
	for _, f := range files {
		pn, err := parseFileName(f.Name)
		if err != nil {
			nameErr = err
			break
		}
		if n := len(fileParts); n == 0 || fileParts[n-1].op != pn.op {
			fileParts = append(fileParts, &filePart{op: pn.op})
		}
		p := fileParts[len(fileParts)-1]
		p.files = append(p.files, namedFile{f: f, pn: pn})
	}

	// Passive rows, one part per operator, in sorted-key order: map
	// iteration order would otherwise leak into error precedence.
	loggerOps := make([]string, 0, len(in.Logger))
	for opShort := range in.Logger {
		loggerOps = append(loggerOps, opShort)
	}
	sort.Strings(loggerOps)
	passiveParts := make([]*passivePart, len(loggerOps))

	var tasks []func()
	for _, p := range fileParts {
		tasks = append(tasks, func() { m.reconcileFiles(p) })
	}
	for i, opShort := range loggerOps {
		if op, ok := radio.ParseOperatorShort(opShort); ok {
			p := &passivePart{op: op, rows: in.Logger[opShort]}
			passiveParts[i] = p
			tasks = append(tasks, func() { m.convertPassive(p) })
		}
	}
	runAll(tasks)

	// Errors surface in the order a single pass would meet them: files
	// in name order, then the malformed name, then logger operators.
	for _, p := range fileParts {
		if p.err != nil {
			return nil, Report{}, p.err
		}
	}
	if nameErr != nil {
		return nil, Report{}, nameErr
	}
	for i, p := range passiveParts {
		if p == nil {
			return nil, Report{}, fmt.Errorf("logsync: unknown logger operator %q", loggerOps[i])
		}
		if p.err != nil {
			return nil, Report{}, p.err
		}
	}

	// Skew between a file-name stamp (best zone interpretation) and the
	// matched app log, in ms — the quantity matchTolerance bounds.
	skew := in.Obs.Histogram("logsync/skew_ms", []float64{1, 10, 100, 1000, 3000})
	rep := Report{}
	parts := make([]*dataset.DB, 0, len(fileParts)+len(passiveParts))
	for _, p := range fileParts {
		offsetTestIDs(&p.db, rep.Matched)
		rep.Matched += p.matched
		rep.UnmatchedFiles = append(rep.UnmatchedFiles, p.unmatched...)
		for _, ms := range p.skewsMS {
			skew.Observe(ms)
		}
		parts = append(parts, &p.db)
	}
	for _, p := range passiveParts {
		parts = append(parts, &p.db)
	}
	for _, used := range m.usedApps {
		if !used {
			rep.UnmatchedApps++
		}
	}
	db := mergeParts(parts)
	db.Meta = in.Meta
	recordMergeStats(in.Obs, db, rep)
	return db, rep, nil
}

// appKey buckets app logs by what a file name can match: operator and
// label.
type appKey struct{ op, label string }

// merger is the state Merge's parts share. Parts only read it, except
// usedApps, whose entries each belong to the one operator part that
// matches files of that app's operator.
type merger struct {
	in        *Input
	appStarts []time.Time
	appsByKey map[appKey][]int
	usedApps  []bool
}

// namedFile is an XCAL file with its parsed name.
type namedFile struct {
	f  *xcal.File
	pn parsedName
}

// filePart is one operator's files and what reconciling them produced:
// tables sorted by sortDB, with test IDs 1..matched.
type filePart struct {
	op      radio.Operator
	files   []namedFile // in name order
	db      dataset.DB
	matched int
	// unmatched and skewsMS follow name order.
	unmatched []string
	skewsMS   []float64
	err       error
}

// passivePart is one operator's passive-logger rows, converted and
// sorted.
type passivePart struct {
	op   radio.Operator
	rows []xcal.LoggerRow
	db   dataset.DB
	err  error
}

// runAll runs every task and waits for them, at most GOMAXPROCS at a
// time.
func runAll(tasks []func()) {
	slots := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	wg.Add(len(tasks))
	for _, task := range tasks {
		slots <- struct{}{}
		go func(task func()) {
			defer wg.Done()
			task()
			<-slots
		}(task)
	}
	wg.Wait()
}

// reconcileFiles matches one operator's files to app logs in name order
// and converts each matched file into tests and samples.
func (m *merger) reconcileFiles(p *filePart) {
	in := m.in
	db := &p.db
	nextID := 1
	for _, nf := range p.files {
		f, pn := nf.f, nf.pn
		candidates := resolveFileStart(pn.naive)
		bestApp, bestSkew := -1, matchTolerance+1
		var bestStart time.Time
		for _, i := range m.appsByKey[appKey{pn.op.Short(), pn.label}] {
			if m.usedApps[i] {
				continue
			}
			for _, c := range candidates {
				skew := m.appStarts[i].Sub(c)
				if skew < 0 {
					skew = -skew
				}
				if skew < bestSkew {
					bestSkew, bestApp, bestStart = skew, i, m.appStarts[i]
				}
			}
		}
		if bestApp < 0 {
			p.unmatched = append(p.unmatched, f.Name)
			continue
		}
		m.usedApps[bestApp] = true
		p.matched++
		p.skewsMS = append(p.skewsMS, float64(bestSkew)/float64(time.Millisecond))
		app := in.Apps[bestApp]

		id := nextID
		nextID++
		end := bestStart.Add(time.Duration(app.DurationSec * float64(time.Second)))
		test := dataset.Test{
			ID:     id,
			Kind:   kindByLabel[pn.label],
			Op:     pn.op,
			Start:  bestStart,
			End:    end,
			Server: app.Server,
			Edge:   app.Edge,
			Static: app.Static,
		}

		rows, signals, err := normalizeFile(*f)
		if err != nil {
			p.err = err
			return
		}
		if len(rows) > 0 {
			first, last := rows[0].raw, rows[len(rows)-1].raw
			test.StartOdo = in.Route.OdometerOf(geo.LatLon{Lat: first.Lat, Lon: first.Lon})
			test.EndOdo = in.Route.OdometerOf(geo.LatLon{Lat: last.Lat, Lon: last.Lon})
			test.Timezone = in.Route.At(test.StartOdo).Timezone
		}
		db.Tests = append(db.Tests, test)

		// Handover records.
		for _, sig := range signals {
			db.Handovers = append(db.Handovers, dataset.Handover{
				TestID: id, Time: sig.at, Op: pn.op,
				DurationMS: sig.raw.DurationMS,
				FromTech:   sig.fromTech, ToTech: sig.toTech,
				Odometer: nearestOdo(rows, sig.at, in.Route),
			})
		}

		switch test.Kind {
		case dataset.ThroughputDL, dataset.ThroughputUL:
			dir := radio.Downlink
			if test.Kind == dataset.ThroughputUL {
				dir = radio.Uplink
			}
			for _, r := range rows {
				db.Throughput = append(db.Throughput, throughputSample(id, dir, r, signals, in.Route, test))
			}
		case dataset.RTTTest:
			for _, e := range app.RTTs {
				at := bestStart.Add(unit.DurationFromMS(e.OffsetMS))
				r := rowNear(rows, at)
				s := dataset.RTTSample{
					TestID: id, Time: at, Op: pn.op,
					RTTMS: e.RTTMS, Lost: e.Lost,
					Edge: app.Edge, Static: app.Static,
				}
				if r != nil {
					s.Tech = r.tech
					s.SpeedMPH = r.raw.SpeedMPH
					s.Odometer = in.Route.OdometerOf(geo.LatLon{Lat: r.raw.Lat, Lon: r.raw.Lon})
					s.Timezone = in.Route.At(s.Odometer).Timezone
				}
				db.RTT = append(db.RTT, s)
			}
		default:
			db.AppRuns = append(db.AppRuns, appRun(id, test, app, rows, signals))
		}
	}
	sortDB(db)
}

// convertPassive turns one operator's passive-logger rows into coverage
// samples.
func (m *merger) convertPassive(p *passivePart) {
	route := m.in.Route
	p.db.Passive = make([]dataset.CoverageSample, 0, len(p.rows))
	for _, r := range p.rows {
		z, ok := zoneByName(r.Zone)
		if !ok {
			p.err = fmt.Errorf("logsync: logger zone %q", r.Zone)
			return
		}
		at, err := time.ParseInLocation(xcal.LoggerFormat, r.TimeLocal, z.Location())
		if err != nil {
			p.err = fmt.Errorf("logsync: logger time %q: %w", r.TimeLocal, err)
			return
		}
		tech, _ := radio.ParseTechnology(r.Tech)
		odo := route.OdometerOf(geo.LatLon{Lat: r.Lat, Lon: r.Lon})
		p.db.Passive = append(p.db.Passive, dataset.CoverageSample{
			Time: at.UTC(), Op: p.op, Tech: tech, CellID: r.CellID,
			Odometer: odo, Timezone: z, SpeedMPH: r.SpeedMPH,
		})
	}
	sortDB(&p.db)
}

// recordMergeStats publishes the merge outcome: how the matcher fared and
// how many rows each table ended up with. The table counters are the
// numbers the -metrics manifest must agree with the written dataset on.
func recordMergeStats(rec *obs.Recorder, db *dataset.DB, rep Report) {
	rec.Counter("logsync/matched").Add(int64(rep.Matched))
	rec.Counter("logsync/unmatched_files").Add(int64(len(rep.UnmatchedFiles)))
	rec.Counter("logsync/unmatched_apps").Add(int64(rep.UnmatchedApps))
	rec.Counter("table/tests").Add(int64(len(db.Tests)))
	rec.Counter("table/throughput").Add(int64(len(db.Throughput)))
	rec.Counter("table/rtt").Add(int64(len(db.RTT)))
	rec.Counter("table/handovers").Add(int64(len(db.Handovers)))
	rec.Counter("table/appruns").Add(int64(len(db.AppRuns)))
	rec.Counter("table/passive").Add(int64(len(db.Passive)))
}

// normRow is a parsed XCAL row with UTC time.
type normRow struct {
	at   time.Time
	tech radio.Technology
	raw  xcal.Row
}

// normSignal is a parsed signaling event.
type normSignal struct {
	at       time.Time
	fromTech radio.Technology
	toTech   radio.Technology
	raw      xcal.Signal
}

func normalizeFile(f xcal.File) ([]normRow, []normSignal, error) {
	rows := make([]normRow, 0, len(f.Rows))
	for _, r := range f.Rows {
		at, err := ParseContentTime(r.TimeEDT)
		if err != nil {
			return nil, nil, err
		}
		tech, _ := radio.ParseTechnology(r.Tech)
		rows = append(rows, normRow{at: at, tech: tech, raw: r})
	}
	signals := make([]normSignal, 0, len(f.Signals))
	for _, s := range f.Signals {
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

func throughputSample(id int, dir radio.Direction, r normRow, signals []normSignal, route *geo.Route, test dataset.Test) dataset.ThroughputSample {
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
		TestID: id, Time: r.at, Op: test.Op, Dir: dir,
		Mbps: r.raw.AppMbps, Tech: r.tech,
		RSRP: r.raw.RSRP, SINR: r.raw.SINR, MCS: r.raw.MCS, CC: cc,
		BLER: r.raw.BLER, Load: r.raw.Load,
		SpeedMPH: r.raw.SpeedMPH, Odometer: odo,
		Timezone: wp.Timezone, Region: wp.Region,
		Handovers: hos, CellID: r.raw.CellID,
		Edge: test.Edge, Static: test.Static,
	}
}

func appRun(id int, test dataset.Test, app AppLog, rows []normRow, signals []normSignal) dataset.AppRun {
	hs := 0
	for _, r := range rows {
		if r.tech.IsHighSpeed() {
			hs++
		}
	}
	frac := 0.0
	if len(rows) > 0 {
		frac = float64(hs) / float64(len(rows))
	}
	m := app.Metrics
	return dataset.AppRun{
		TestID: id, Kind: test.Kind, Op: test.Op, Start: test.Start,
		Compressed: app.Compressed,
		E2EMS:      m["e2e_ms"], OffloadFPS: m["fps"], MAP: m["map"],
		QoE: m["qoe"], AvgBitrate: m["bitrate"], RebufferFrac: m["rebuffer"],
		SendBitrate: m["send_bitrate"], NetLatencyMS: m["net_latency_ms"], FrameDropFrac: m["frame_drop"],
		HighSpeedFrac: frac, Edge: test.Edge,
		Handovers: len(signals), Static: test.Static,
	}
}

// rowNear finds the row whose window contains (or is closest to) at.
func rowNear(rows []normRow, at time.Time) *normRow {
	if len(rows) == 0 {
		return nil
	}
	i := sort.Search(len(rows), func(i int) bool { return !rows[i].at.Before(at) })
	if i == 0 {
		return &rows[0]
	}
	if i >= len(rows) {
		return &rows[len(rows)-1]
	}
	// Pick the neighbour with smaller skew.
	if rows[i].at.Sub(at) < at.Sub(rows[i-1].at) {
		return &rows[i]
	}
	return &rows[i-1]
}

func nearestOdo(rows []normRow, at time.Time, route *geo.Route) unit.Meters {
	r := rowNear(rows, at)
	if r == nil {
		return 0
	}
	return route.OdometerOf(geo.LatLon{Lat: r.raw.Lat, Lon: r.raw.Lon})
}

// sortDB orders every table for reproducible output. Sorts are stable and
// carry explicit tie-breakers: samples from different tests (or, for
// passive rows, different operators) can share a timestamp, and a sort
// keyed on time alone would leave their relative order input-dependent.
func sortDB(db *dataset.DB) {
	sortStable(db.Tests, testLess)
	sortStable(db.Throughput, throughputLess)
	sortStable(db.RTT, rttLess)
	sortStable(db.Handovers, handoverLess)
	sortStable(db.AppRuns, appRunLess)
	sortStable(db.Passive, passiveLess)
}

func sortStable[T any](s []T, less func(a, b *T) bool) {
	sort.SliceStable(s, func(i, j int) bool { return less(&s[i], &s[j]) })
}

// sortDB's orders, one per table.

func testLess(a, b *dataset.Test) bool { return a.ID < b.ID }

func throughputLess(a, b *dataset.ThroughputSample) bool {
	if !a.Time.Equal(b.Time) {
		return a.Time.Before(b.Time)
	}
	return a.TestID < b.TestID
}

func rttLess(a, b *dataset.RTTSample) bool {
	if !a.Time.Equal(b.Time) {
		return a.Time.Before(b.Time)
	}
	return a.TestID < b.TestID
}

func handoverLess(a, b *dataset.Handover) bool {
	if !a.Time.Equal(b.Time) {
		return a.Time.Before(b.Time)
	}
	return a.TestID < b.TestID
}

func appRunLess(a, b *dataset.AppRun) bool {
	if !a.Start.Equal(b.Start) {
		return a.Start.Before(b.Start)
	}
	return a.TestID < b.TestID
}

func passiveLess(a, b *dataset.CoverageSample) bool {
	if !a.Time.Equal(b.Time) {
		return a.Time.Before(b.Time)
	}
	return a.Op < b.Op
}

// offsetTestIDs renumbers a part's tests from 1..n to off+1..off+n.
func offsetTestIDs(db *dataset.DB, off int) {
	for i := range db.Tests {
		db.Tests[i].ID += off
	}
	for i := range db.Throughput {
		db.Throughput[i].TestID += off
	}
	for i := range db.RTT {
		db.RTT[i].TestID += off
	}
	for i := range db.Handovers {
		db.Handovers[i].TestID += off
	}
	for i := range db.AppRuns {
		db.AppRuns[i].TestID += off
	}
}

// mergeParts joins parts whose tables are each sorted by sortDB, with
// test IDs already offset, into one database with every table in sortDB
// order. It equals sortDB over the concatenation of the parts: no two
// rows of different parts tie under sortDB's orders (their test IDs
// differ, and passive rows of different parts differ in Op), so each
// table's order is total across parts, and a part's own ties keep their
// order.
func mergeParts(parts []*dataset.DB) *dataset.DB {
	db := &dataset.DB{}
	db.Tests = mergeSorted(parts, func(p *dataset.DB) *[]dataset.Test { return &p.Tests }, testLess)
	db.Throughput = mergeSorted(parts, func(p *dataset.DB) *[]dataset.ThroughputSample { return &p.Throughput }, throughputLess)
	db.RTT = mergeSorted(parts, func(p *dataset.DB) *[]dataset.RTTSample { return &p.RTT }, rttLess)
	db.Handovers = mergeSorted(parts, func(p *dataset.DB) *[]dataset.Handover { return &p.Handovers }, handoverLess)
	db.AppRuns = mergeSorted(parts, func(p *dataset.DB) *[]dataset.AppRun { return &p.AppRuns }, appRunLess)
	db.Passive = mergeSorted(parts, func(p *dataset.DB) *[]dataset.CoverageSample { return &p.Passive }, passiveLess)
	return db
}

// mergeSorted is a k-way merge of one table across parts, each sorted by
// less. On a tie the earlier part goes first. It drops the parts' copies
// of the table, so they can be freed, and returns nil when every part is
// empty, as appending to a nil table would.
func mergeSorted[T any](parts []*dataset.DB, table func(*dataset.DB) *[]T, less func(a, b *T) bool) []T {
	heads := make([][]T, 0, len(parts))
	n := 0
	for _, p := range parts {
		t := table(p)
		if len(*t) > 0 {
			heads = append(heads, *t)
			n += len(*t)
		}
		*t = nil
	}
	if n == 0 {
		return nil
	}
	out := make([]T, 0, n)
	for len(heads) > 1 {
		best := 0
		for i := 1; i < len(heads); i++ {
			if less(&heads[i][0], &heads[best][0]) {
				best = i
			}
		}
		out = append(out, heads[best][0])
		if heads[best] = heads[best][1:]; len(heads[best]) == 0 {
			heads = append(heads[:best], heads[best+1:]...)
		}
	}
	return append(out, heads[0]...)
}

// Package logsync is the reproduction of the paper's "sophisticated
// software" for challenge C2 (§3, §B): it reconciles logs whose
// timestamps come in three inconsistent formats — XCAL file names stamped
// in the vehicle's local time, XCAL file contents stamped in fixed EDT,
// and application logs stamped either in UTC or in naive local time —
// across the four timezones the trip crosses, matches each application
// log to its XCAL capture, and emits the consolidated database the
// analysis runs on.
//
// The work comes in two steps. A Normalizer turns each XCAL capture,
// and each batch of passive-logger rows, into records the moment they
// are logged: the content stamps are fixed EDT, so nothing in that step
// depends on the match. Merge then matches captures to application logs
// and assembles the database.
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
	"slices"
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
		t, err := parseLoggerTime(l.StartStamp, z.Location())
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
	// Captures are the XCAL files, each normalised when its test ended
	// (Normalizer.Capture), in any order.
	Captures []Capture
	Apps     []AppLog
	// Passive holds the passive-logger samples keyed by operator short
	// code (Normalizer.Passive).
	Passive map[string]Passive
	Meta    dataset.Meta
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

// Merge matches the normalised captures to their app logs and builds
// the consolidated database. It only reads its Input, so one Input can
// be merged any number of times.
//
// What is left after normalisation is global work: the name matcher,
// test IDs and the matched app's fields, and the sort. The work splits
// by operator: every file name starts with "<op>_", so the name order of
// all files is the A, T, V concatenation of each operator's name order,
// and a file only ever matches an app log of its own operator. Each
// operator's captures and each operator's passive samples are therefore
// separate parts, built concurrently, with test IDs numbered 1..n within
// a part. A final pass offsets the IDs by the matched counts of the
// parts before and merges the parts' sorted tables (see mergeParts). The
// result is the database a single pass over the files in name order,
// followed by sortDB, would build.
func Merge(in Input) (*dataset.DB, Report, error) {
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
		// label, so the matcher searches that bucket of app indices.
		k := appKey{a.Op, a.Kind}
		m.appsByKey[k] = append(m.appsByKey[k], i)
	}
	// Each bucket is ordered by start, ties by index (the buckets are
	// built in ascending index order, and the sort is stable), so
	// matchApp can search a window of it.
	for _, bucket := range m.appsByKey {
		slices.SortStableFunc(bucket, func(a, b int) int { return m.appStarts[a].Compare(m.appStarts[b]) })
	}

	// Deterministic processing order: captures sorted by name. A
	// malformed name ends the list; the captures before it are still
	// reconciled, so an earlier file's content error wins.
	caps := make([]*Capture, len(in.Captures))
	for i := range in.Captures {
		caps[i] = &in.Captures[i]
	}
	sort.SliceStable(caps, func(i, j int) bool { return caps[i].Name < caps[j].Name })
	var fileParts []*filePart
	var nameErr error
	for _, c := range caps {
		if c.nameErr != nil {
			nameErr = c.nameErr
			break
		}
		if n := len(fileParts); n == 0 || fileParts[n-1].op != c.name.op {
			fileParts = append(fileParts, &filePart{op: c.name.op})
		}
		p := fileParts[len(fileParts)-1]
		p.caps = append(p.caps, c)
	}

	// Passive samples, one part per operator, in sorted-key order: map
	// iteration order would otherwise leak into error precedence.
	loggerOps := make([]string, 0, len(in.Passive))
	for opShort := range in.Passive {
		loggerOps = append(loggerOps, opShort)
	}
	sort.Strings(loggerOps)
	passiveParts := make([]*dataset.DB, len(loggerOps))

	var tasks []func()
	for _, p := range fileParts {
		tasks = append(tasks, func() { m.reconcileFiles(p) })
	}
	for i, opShort := range loggerOps {
		if _, ok := radio.ParseOperatorShort(opShort); ok {
			p := &dataset.DB{Passive: in.Passive[opShort].Samples}
			passiveParts[i] = p
			tasks = append(tasks, func() { p.Passive = sortedPassive(p.Passive) })
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
		if err := in.Passive[loggerOps[i]].Err; err != nil {
			return nil, Report{}, err
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
	parts = append(parts, passiveParts...)
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

// matchApp picks the app log a file name matches: among the unused apps
// of bucket within matchTolerance of one of the name's zone readings,
// the one with the least skew, ties to the lowest index. It reports -1
// when there is none. That is the app a scan of the whole bucket in
// ascending index order picks, keeping the first strictly smaller skew;
// the bucket, ordered by (start, index), lets each reading c visit only
// the window [c − matchTolerance, c + matchTolerance] of it.
func matchApp(bucket []int, starts []time.Time, used []bool, readings [4]time.Time) (int, time.Duration) {
	bestApp, bestSkew := -1, matchTolerance+1
	for _, c := range readings {
		lo, hi := c.Add(-matchTolerance), c.Add(matchTolerance)
		// The first bucket position starting at or after lo.
		i, j := 0, len(bucket)
		for i < j {
			h := int(uint(i+j) >> 1)
			if starts[bucket[h]].Before(lo) {
				i = h + 1
			} else {
				j = h
			}
		}
		for ; i < len(bucket) && !starts[bucket[i]].After(hi); i++ {
			a := bucket[i]
			if used[a] {
				continue
			}
			skew := starts[a].Sub(c)
			if skew < 0 {
				skew = -skew
			}
			if skew < bestSkew || skew == bestSkew && a < bestApp {
				bestSkew, bestApp = skew, a
			}
		}
	}
	return bestApp, bestSkew
}

// merger is the state Merge's parts share. Parts only read it, except
// usedApps, whose entries each belong to the one operator part that
// matches files of that app's operator.
type merger struct {
	in        *Input
	appStarts []time.Time
	appsByKey map[appKey][]int
	usedApps  []bool
}

// filePart is one operator's captures and what reconciling them
// produced: tables sorted by sortDB, with test IDs 1..matched.
type filePart struct {
	op      radio.Operator
	caps    []*Capture // in name order
	db      dataset.DB
	matched int
	// unmatched and skewsMS follow name order.
	unmatched []string
	skewsMS   []float64
	err       error
}

// sortedPassive returns s in sortDB order: s itself when it already is,
// as a lane logs its samples, and otherwise a sorted copy, so Merge
// leaves its input as it was.
func sortedPassive(s []dataset.CoverageSample) []dataset.CoverageSample {
	cmp := func(a, b dataset.CoverageSample) int { return cmpBy(passiveLess, &a, &b) }
	if slices.IsSortedFunc(s, cmp) {
		return s
	}
	s = slices.Clone(s)
	slices.SortStableFunc(s, cmp)
	return s
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

// reconcileFiles matches one operator's captures to app logs in name
// order and turns each matched capture into a test and its samples.
func (m *merger) reconcileFiles(p *filePart) {
	in := m.in
	db := &p.db
	presize(db, p.caps)
	nextID := 1
	for _, c := range p.caps {
		pn := c.name
		bucket := m.appsByKey[appKey{pn.op.Short(), pn.label}]
		bestApp, bestSkew := matchApp(bucket, m.appStarts, m.usedApps, resolveFileStart(pn.naive))
		if bestApp < 0 {
			p.unmatched = append(p.unmatched, c.Name)
			continue
		}
		bestStart := m.appStarts[bestApp]
		m.usedApps[bestApp] = true
		p.matched++
		p.skewsMS = append(p.skewsMS, float64(bestSkew)/float64(time.Millisecond))
		app := &in.Apps[bestApp]
		if c.err != nil {
			p.err = c.err
			return
		}

		id := nextID
		nextID++
		end := bestStart.Add(time.Duration(app.DurationSec * float64(time.Second)))
		test := dataset.Test{
			ID:       id,
			Kind:     kindByLabel[pn.label],
			Op:       pn.op,
			Start:    bestStart,
			End:      end,
			StartOdo: c.startOdo,
			EndOdo:   c.endOdo,
			Server:   app.Server,
			Edge:     app.Edge,
			Static:   app.Static,
			Timezone: c.timezone,
		}
		db.Tests = append(db.Tests, test)

		for _, h := range c.handovers {
			h.TestID = id
			db.Handovers = append(db.Handovers, h)
		}
		switch test.Kind {
		case dataset.ThroughputDL, dataset.ThroughputUL:
			for _, s := range c.throughput {
				s.TestID, s.Edge, s.Static = id, test.Edge, test.Static
				db.Throughput = append(db.Throughput, s)
			}
		case dataset.RTTTest:
			for _, e := range app.RTTs {
				at := bestStart.Add(unit.DurationFromMS(e.OffsetMS))
				s := dataset.RTTSample{
					TestID: id, Time: at, Op: pn.op,
					RTTMS: e.RTTMS, Lost: e.Lost,
					Edge: app.Edge, Static: app.Static,
				}
				if i := rowNear(len(c.rows), at, func(i int) time.Time { return c.rows[i].at }); i >= 0 {
					r := &c.rows[i]
					s.Tech, s.SpeedMPH, s.Odometer, s.Timezone = r.tech, r.speedMPH, r.odo, r.zone
				}
				db.RTT = append(db.RTT, s)
			}
		default:
			db.AppRuns = append(db.AppRuns, appRun(id, test, app, c))
		}
	}
	sortDB(db)
}

// presize sizes a file part's tables for its captures: a test and an app
// run per capture, a handover per signal, and a throughput sample per row
// of a throughput file. Unmatched captures make these upper bounds; RTT
// samples come from the app logs and grow as they are met.
func presize(db *dataset.DB, caps []*Capture) {
	var apps, handovers, rows int
	for _, c := range caps {
		handovers += len(c.handovers)
		rows += len(c.throughput)
		switch kindByLabel[c.name.label] {
		case dataset.ThroughputDL, dataset.ThroughputUL, dataset.RTTTest:
		default:
			apps++
		}
	}
	db.Tests = make([]dataset.Test, 0, len(caps))
	db.Handovers = make([]dataset.Handover, 0, handovers)
	db.Throughput = make([]dataset.ThroughputSample, 0, rows)
	db.AppRuns = make([]dataset.AppRun, 0, apps)
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

func appRun(id int, test dataset.Test, app *AppLog, c *Capture) dataset.AppRun {
	m := app.Metrics
	return dataset.AppRun{
		TestID: id, Kind: test.Kind, Op: test.Op, Start: test.Start,
		Compressed: app.Compressed,
		E2EMS:      m["e2e_ms"], OffloadFPS: m["fps"], MAP: m["map"],
		QoE: m["qoe"], AvgBitrate: m["bitrate"], RebufferFrac: m["rebuffer"],
		SendBitrate: m["send_bitrate"], NetLatencyMS: m["net_latency_ms"], FrameDropFrac: m["frame_drop"],
		HighSpeedFrac: c.highSpeedFrac, Edge: test.Edge,
		Handovers: len(c.handovers), Static: test.Static,
	}
}

// sortDB orders every table for reproducible output. Sorts are stable and
// carry explicit tie-breakers: samples from different tests (or, for
// passive rows, different operators) can share a timestamp, and a sort
// keyed on time alone would leave their relative order input-dependent.
func sortDB(db *dataset.DB) {
	slices.SortStableFunc(db.Tests, func(a, b dataset.Test) int { return cmpBy(testLess, &a, &b) })
	slices.SortStableFunc(db.Throughput, func(a, b dataset.ThroughputSample) int { return cmpBy(throughputLess, &a, &b) })
	slices.SortStableFunc(db.RTT, func(a, b dataset.RTTSample) int { return cmpBy(rttLess, &a, &b) })
	slices.SortStableFunc(db.Handovers, func(a, b dataset.Handover) int { return cmpBy(handoverLess, &a, &b) })
	slices.SortStableFunc(db.AppRuns, func(a, b dataset.AppRun) int { return cmpBy(appRunLess, &a, &b) })
	slices.SortStableFunc(db.Passive, func(a, b dataset.CoverageSample) int { return cmpBy(passiveLess, &a, &b) })
}

// cmpBy turns a strict order into the three-way comparison
// slices.SortStableFunc takes.
func cmpBy[T any](less func(a, b *T) bool, a, b *T) int {
	switch {
	case less(a, b):
		return -1
	case less(b, a):
		return 1
	}
	return 0
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

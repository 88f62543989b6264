// Package logsync is the reproduction of the paper's "sophisticated
// software" for challenge C2 (§3, §B): it reconciles XCAL captures,
// whose names carry the vehicle's local wall clock with no zone, with
// the application logs across the four timezones the trip crosses,
// matches each application log to its XCAL capture, and emits the
// consolidated database the analysis runs on. The recorder and the apps
// log instants, operators and kinds, so both reach this package typed;
// only the zone a capture's stamp was taken in is unknown. XCAL file
// contents are stamped in fixed EDT, but only when the xcal package
// encodes a .drm container.
//
// The work comes in two steps. A Normalizer turns each XCAL capture,
// and each second the passive loggers log, into records the moment they
// are logged: a capture's rows carry their instants, so nothing in that
// step depends on the match. Merge then matches captures to application
// logs and assembles the database, consuming its input as it goes.
//
// The matcher never sees test identifiers: like the real pipeline, it has
// only operator, test kind, and timestamps to go on. Matching a capture
// means trying each of the four candidate timezones for its stamp and
// accepting the interpretation that lines up with an application log of
// the same operator and kind.
package logsync

import (
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/nuwins/cellwheels/internal/dataset"
	"github.com/nuwins/cellwheels/internal/geo"
	"github.com/nuwins/cellwheels/internal/obs"
	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/unit"
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
	Op         radio.Operator
	Kind       dataset.TestKind
	Server     string
	Edge       bool
	Static     bool
	Compressed bool

	// Start is the instant the app logged the test's start, in UTC: exact
	// for the apps that stamp UTC, to the second for the RTT and video
	// apps, which log whole seconds of local time.
	Start       time.Time
	DurationSec float64

	RTTs []RTTEntry
	// Result holds an AR, CAV, video or gaming app's metric fields; Merge
	// sets the rest of the dataset row.
	Result dataset.AppRun
}

// labels is each test kind's file label, indexed by kind: the one table
// that renders kinds into capture names and reads them back.
var labels = [...]string{
	dataset.ThroughputDL: "DL",
	dataset.ThroughputUL: "UL",
	dataset.RTTTest:      "RTT",
	dataset.AppAR:        "AR",
	dataset.AppCAV:       "CAV",
	dataset.AppVideo:     "VID",
	dataset.AppGaming:    "GAME",
}

// LabelOf renders a test kind as its file label.
func LabelOf(k dataset.TestKind) string { return labels[k] }

// kindOf reads a file label back as its test kind; ok is false for a
// label outside the table.
func kindOf(label string) (dataset.TestKind, bool) {
	for k, l := range labels {
		if l == label {
			return dataset.TestKind(k), true
		}
	}
	return 0, false
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
	// Passive is the passive loggers' log: the logged seconds once, and a
	// column of cells per operator.
	Passive PassiveLog
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
// the consolidated database. It consumes its Input: it drops each
// capture's handover, throughput and row tables, and each matched app
// log's RTT entries, once the capture is reconciled, and each chunk of
// the passive log once it is expanded, so that what the database copies
// can be freed while the merge still runs. An Input is merged once. The
// error reports a passive log whose columns do not line up with its
// seconds (PassiveLog.check); Merge then returns before it consumes
// anything.
//
// What is left after normalisation is global work: the name matcher,
// test IDs and the matched app's fields, and the sort. The work splits
// by operator: every file name starts with "<op>_", so the name order of
// all files is the A, T, V concatenation of each operator's name order,
// and a file only ever matches an app log of its own operator. Each
// operator's captures are therefore a separate part, built concurrently
// with the others and with the passive table, with test IDs numbered
// 1..n within a part. A final pass offsets the IDs by the matched counts
// of the parts before and merges the parts' sorted tables (see
// mergeParts). The result is the database a single pass over the files
// in name order, followed by sortDB, would build.
func Merge(in Input) (*dataset.DB, Report, error) {
	defer in.Obs.StartPhase("merge")()
	passiveOps, seconds, err := in.Passive.check()
	if err != nil {
		return nil, Report{}, err
	}
	m := &merger{in: &in, appsByKey: map[appKey][]int{}}
	m.appStarts = make([]time.Time, len(in.Apps))
	m.usedApps = make([]bool, len(in.Apps))
	for i, a := range in.Apps {
		m.appStarts[i] = a.Start
		// A file only ever matches an app log of its own operator and
		// kind, so the matcher searches that bucket of app indices.
		k := appKey{a.Op, a.Kind}
		m.appsByKey[k] = append(m.appsByKey[k], i)
	}
	// Each bucket is ordered by start, ties by index (the buckets are
	// built in ascending index order, and the sort is stable), so
	// matchApp can search a window of it.
	for _, bucket := range m.appsByKey {
		slices.SortStableFunc(bucket, func(a, b int) int { return m.appStarts[a].Compare(m.appStarts[b]) })
	}

	// Deterministic processing order: captures sorted by name.
	caps := make([]*Capture, len(in.Captures))
	for i := range in.Captures {
		caps[i] = &in.Captures[i]
	}
	sort.SliceStable(caps, func(i, j int) bool { return caps[i].Name < caps[j].Name })
	var fileParts []*filePart
	for _, c := range caps {
		if n := len(fileParts); n == 0 || fileParts[n-1].op != c.op {
			fileParts = append(fileParts, &filePart{op: c.op})
		}
		p := fileParts[len(fileParts)-1]
		p.caps = append(p.caps, c)
	}

	var passive []dataset.CoverageSample
	tasks := []func(){func() { passive = in.Passive.expand(passiveOps, seconds) }}
	for _, p := range fileParts {
		tasks = append(tasks, func() { m.reconcileFiles(p) })
	}
	runAll(tasks)

	// Skew between a file-name stamp (best zone interpretation) and the
	// matched app log, in ms — the quantity matchTolerance bounds.
	skew := in.Obs.Histogram("logsync/skew_ms", []float64{1, 10, 100, 1000, 3000})
	rep := Report{}
	parts := make([]*dataset.DB, 0, len(fileParts))
	for _, p := range fileParts {
		offsetTestIDs(&p.db, rep.Matched)
		rep.Matched += p.matched
		rep.UnmatchedFiles = append(rep.UnmatchedFiles, p.unmatched...)
		for _, ms := range p.skewsMS {
			skew.Observe(ms)
		}
		parts = append(parts, &p.db)
	}
	for _, used := range m.usedApps {
		if !used {
			rep.UnmatchedApps++
		}
	}
	db := mergeParts(parts)
	db.Passive = passive
	db.Meta = in.Meta
	recordMergeStats(in.Obs, db, rep)
	return db, rep, nil
}

// appKey buckets app logs by what a file name can match: operator and
// kind.
type appKey struct {
	op   radio.Operator
	kind dataset.TestKind
}

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
	presize(&p.db, p.caps)
	for _, c := range p.caps {
		m.reconcile(p, c)
		// The part holds what it needs of the capture now.
		c.handovers, c.throughput, c.rows = nil, nil, nil
	}
	sortDB(&p.db)
}

// reconcile matches one capture to an app log, and adds the test and
// samples of a matched one to its part, with the next of the part's
// test IDs.
func (m *merger) reconcile(p *filePart, c *Capture) {
	db := &p.db
	bestApp, bestSkew := -1, time.Duration(0)
	if c.labeled {
		bucket := m.appsByKey[appKey{c.op, c.kind}]
		bestApp, bestSkew = matchApp(bucket, m.appStarts, m.usedApps, resolveFileStart(c.stamp))
	}
	if bestApp < 0 {
		p.unmatched = append(p.unmatched, c.Name)
		return
	}
	bestStart := m.appStarts[bestApp]
	m.usedApps[bestApp] = true
	p.matched++
	p.skewsMS = append(p.skewsMS, float64(bestSkew)/float64(time.Millisecond))
	app := &m.in.Apps[bestApp]

	id := p.matched
	end := bestStart.Add(time.Duration(app.DurationSec * float64(time.Second)))
	test := dataset.Test{
		ID:       id,
		Kind:     c.kind,
		Op:       c.op,
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
				TestID: id, Time: at, Op: c.op,
				RTTMS: e.RTTMS, Lost: e.Lost,
				Edge: app.Edge, Static: app.Static,
			}
			if i := rowNear(len(c.rows), at, func(i int) time.Time { return c.rows[i].at }); i >= 0 {
				r := &c.rows[i]
				s.Tech, s.SpeedMPH, s.Odometer, s.Timezone = r.tech, r.speedMPH, r.odo, r.zone
			}
			db.RTT = append(db.RTT, s)
		}
		app.RTTs = nil
	default:
		db.AppRuns = append(db.AppRuns, appRun(id, test, app, c))
	}
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
		switch c.kind {
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

// appRun is the matched app's metric fields with the rest of the row
// set from its test and capture.
func appRun(id int, test dataset.Test, app *AppLog, c *Capture) dataset.AppRun {
	r := app.Result
	r.TestID, r.Kind, r.Op, r.Start = id, test.Kind, test.Op, test.Start
	r.Compressed = app.Compressed
	r.HighSpeedFrac, r.Edge = c.highSpeedFrac, test.Edge
	r.Handovers, r.Static = len(c.handovers), test.Static
	return r
}

// sortDB orders a file part's tables for reproducible output. Sorts are
// stable and carry explicit tie-breakers: samples from different tests
// can share a timestamp, and a sort keyed on time alone would leave
// their relative order input-dependent. The passive table needs no
// sort: PassiveLog.expand builds it in order.
func sortDB(db *dataset.DB) {
	slices.SortStableFunc(db.Tests, func(a, b dataset.Test) int { return cmpBy(testLess, &a, &b) })
	slices.SortStableFunc(db.Throughput, func(a, b dataset.ThroughputSample) int { return cmpBy(throughputLess, &a, &b) })
	slices.SortStableFunc(db.RTT, func(a, b dataset.RTTSample) int { return cmpBy(rttLess, &a, &b) })
	slices.SortStableFunc(db.Handovers, func(a, b dataset.Handover) int { return cmpBy(handoverLess, &a, &b) })
	slices.SortStableFunc(db.AppRuns, func(a, b dataset.AppRun) int { return cmpBy(appRunLess, &a, &b) })
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
// rows of different parts tie under sortDB's orders, as their test IDs
// differ, so each table's order is total across parts, and a part's own
// ties keep their order.
func mergeParts(parts []*dataset.DB) *dataset.DB {
	db := &dataset.DB{}
	db.Tests = mergeSorted(parts, func(p *dataset.DB) *[]dataset.Test { return &p.Tests }, testLess)
	db.Throughput = mergeSorted(parts, func(p *dataset.DB) *[]dataset.ThroughputSample { return &p.Throughput }, throughputLess)
	db.RTT = mergeSorted(parts, func(p *dataset.DB) *[]dataset.RTTSample { return &p.RTT }, rttLess)
	db.Handovers = mergeSorted(parts, func(p *dataset.DB) *[]dataset.Handover { return &p.Handovers }, handoverLess)
	db.AppRuns = mergeSorted(parts, func(p *dataset.DB) *[]dataset.AppRun { return &p.AppRuns }, appRunLess)
	return db
}

// mergeSorted is a k-way merge of one table across parts, each sorted by
// less. On a tie the earlier part goes first. It drops the parts' copies
// of the table, so they can be freed, and returns nil when every part is
// empty, as appending to a nil table would.
func mergeSorted[T any](parts []*dataset.DB, table func(*dataset.DB) *[]T, less func(a, b *T) bool) []T {
	seqs := make([][]T, len(parts))
	for i, p := range parts {
		t := table(p)
		seqs[i], *t = *t, nil
	}
	return mergeRuns(seqs, less)
}

// mergeRuns is a k-way merge of sequences, each sorted by less. On a tie
// the earlier sequence goes first. It returns nil when every sequence is
// empty.
func mergeRuns[T any](seqs [][]T, less func(a, b *T) bool) []T {
	runs := make([][]T, 0, len(seqs))
	n := 0
	for _, s := range seqs {
		if len(s) > 0 {
			runs = append(runs, s)
			n += len(s)
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]T, 0, n)
	for len(runs) > 1 {
		best := 0
		for i := 1; i < len(runs); i++ {
			if less(&runs[i][0], &runs[best][0]) {
				best = i
			}
		}
		out = append(out, runs[best][0])
		if runs[best] = runs[best][1:]; len(runs[best]) == 0 {
			runs = append(runs[:best], runs[best+1:]...)
		}
	}
	return append(out, runs[0]...)
}

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
// step depends on the match. Merge then makes one pass over the matches:
// it matches the captures to application logs, copies each matched
// capture's records into tables allocated at their exact size, and sorts
// each table once, consuming its input as it goes.
//
// The matcher never sees test identifiers: like the real pipeline, it has
// only operator, test kind, and timestamps to go on. A capture's rows
// carry UTC instants, so its first row says when its test started; only
// a capture with no rows falls back to its name stamp, read in each of
// the four candidate timezones. Either way the capture matches the
// application log of the same operator and kind that starts closest to
// that instant, and the assignment is the same in any capture order.
package logsync

import (
	"cmp"
	"slices"
	"strings"
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

// matchTolerance is the maximum skew accepted between a capture's start
// (its first row, or its name stamp under some zone interpretation) and
// an app log's start.
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
// the consolidated database in one pass over the matches: match pairs
// captures with app logs and numbers the tests in name order, emit
// copies each matched capture's records into tables allocated once at
// their exact size, and sortDB puts every table in its final order.
// PassiveLog.expand builds the passive table meanwhile, the one task
// that runs concurrently.
//
// Merge consumes its Input: it drops every capture's handover,
// throughput and row tables, and each matched app log's RTT entries, as
// soon as it has copied them or found them unmatched, and each chunk of
// the passive log once it is expanded. An Input is merged once. The error reports a passive log
// whose columns do not line up with its seconds (PassiveLog.check);
// Merge then returns before it consumes anything.
func Merge(in Input) (*dataset.DB, Report, error) {
	defer in.Obs.StartPhase("merge")()
	passiveOps, seconds, err := in.Passive.check()
	if err != nil {
		return nil, Report{}, err
	}
	passive := make(chan []dataset.CoverageSample, 1)
	go func() { passive <- in.Passive.expand(passiveOps, seconds) }()

	matches, rep := match(in.Captures, in.Apps)
	// Skew between a capture's start and its matched app log's start, in
	// ms — the quantity matchTolerance bounds. The start is the first
	// row's instant, or for a capture with no rows the name stamp's
	// closest zone reading.
	skew := in.Obs.Histogram("logsync/skew_ms", []float64{1, 10, 100, 1000, 3000})
	for _, m := range matches {
		skew.Observe(float64(m.skew) / float64(time.Millisecond))
	}
	db := emit(matches)
	sortDB(db)
	db.Passive = <-passive
	db.Meta = in.Meta
	recordMergeStats(in.Obs, db, rep)
	return db, rep, nil
}

// assignment is one capture matched to its app log, with its test ID
// and the skew between the name's stamp and the app log's start.
type assignment struct {
	c    *Capture
	app  *AppLog
	id   int
	skew time.Duration
}

// match pairs captures with app logs. A capture's start is its first
// row's instant; a capture with no rows, a test cut off in its first
// 500 ms, is read at its name stamp in each of the four zones. Every
// (capture, app log) pair of one operator and kind whose starts lie
// within matchTolerance is a candidate, and the candidates are taken in
// ascending skew, ties by capture name and then app index, each capture
// and each app log at most once. The assignment is therefore the same in
// any capture order. match numbers the matched captures 1..n in name
// order, and the report lists the unmatched files in name order. It
// drops the tables of every capture it leaves unmatched.
func match(captures []Capture, apps []AppLog) ([]assignment, Report) {
	starts := make([]time.Time, len(apps))
	// A file only ever matches an app log of its own operator and kind,
	// so the matcher searches that bucket of app indices.
	buckets := map[appKey][]int{}
	for i, a := range apps {
		starts[i] = a.Start
		k := appKey{a.Op, a.Kind}
		buckets[k] = append(buckets[k], i)
	}
	// Each bucket is ordered by start, so the candidates of one reading
	// are a window of it.
	for _, bucket := range buckets {
		slices.SortFunc(bucket, func(a, b int) int { return starts[a].Compare(starts[b]) })
	}
	caps := make([]*Capture, len(captures))
	for i := range captures {
		caps[i] = &captures[i]
	}
	slices.SortStableFunc(caps, func(a, b *Capture) int { return strings.Compare(a.Name, b.Name) })

	var cands []candidate
	for ci, c := range caps {
		if !c.labeled {
			continue
		}
		readings := []time.Time{c.first}
		if c.first.IsZero() {
			zones := resolveFileStart(c.stamp)
			readings = zones[:]
		}
		bucket := buckets[appKey{c.op, c.kind}]
		for _, r := range readings {
			for _, a := range window(bucket, starts, r) {
				skew := starts[a].Sub(r)
				if skew < 0 {
					skew = -skew
				}
				cands = append(cands, candidate{capture: ci, app: a, skew: skew})
			}
		}
	}
	slices.SortFunc(cands, func(a, b candidate) int {
		return cmp.Or(cmp.Compare(a.skew, b.skew), cmp.Compare(a.capture, b.capture), cmp.Compare(a.app, b.app))
	})
	taken := make([]*candidate, len(caps))
	used := make([]bool, len(apps))
	for i := range cands {
		k := &cands[i]
		if taken[k.capture] == nil && !used[k.app] {
			taken[k.capture], used[k.app] = k, true
		}
	}

	var rep Report
	matches := make([]assignment, 0, len(caps))
	for ci, c := range caps {
		k := taken[ci]
		if k == nil {
			rep.UnmatchedFiles = append(rep.UnmatchedFiles, c.Name)
			c.handovers, c.throughput, c.rows = nil, nil, nil
			continue
		}
		matches = append(matches, assignment{c: c, app: &apps[k.app], id: len(matches) + 1, skew: k.skew})
	}
	rep.Matched = len(matches)
	for _, u := range used {
		if !u {
			rep.UnmatchedApps++
		}
	}
	return matches, rep
}

// candidate is a capture, by its position in name order, that could
// match an app log, and the skew between their starts.
type candidate struct {
	capture, app int
	skew         time.Duration
}

// appKey buckets app logs by what a file name can match: operator and
// kind.
type appKey struct {
	op   radio.Operator
	kind dataset.TestKind
}

// window returns the part of bucket, which is ordered by start, whose
// apps start within matchTolerance of at.
func window(bucket []int, starts []time.Time, at time.Time) []int {
	lo, hi := at.Add(-matchTolerance), at.Add(matchTolerance)
	i, _ := slices.BinarySearchFunc(bucket, lo, func(a int, t time.Time) int { return starts[a].Compare(t) })
	j := i
	for j < len(bucket) && !starts[bucket[j]].After(hi) {
		j++
	}
	return bucket[i:j]
}

// emit builds the matched captures' tables: the tests in ID order, and
// each capture's handovers, throughput samples, RTT samples or app run.
// It takes the captures in test-start order, ties by ID: a phone runs
// one test at a time, so that leaves sortDB little more to do than
// interleave the three phones' rows. Each table is allocated once at
// its exact size, and a table with no rows stays nil. It drops each
// capture's tables and each matched app log's RTT entries once it has
// copied them, and leaves matches in the order it took them.
func emit(matches []assignment) *dataset.DB {
	db := &dataset.DB{Tests: table[dataset.Test](len(matches))}
	var handovers, throughput, rtt, appRuns int
	for _, m := range matches {
		db.Tests = append(db.Tests, m.test())
		handovers += len(m.c.handovers)
		switch m.c.kind {
		case dataset.ThroughputDL, dataset.ThroughputUL:
			throughput += len(m.c.throughput)
		case dataset.RTTTest:
			rtt += len(m.app.RTTs)
		default:
			appRuns++
		}
	}
	db.Handovers = table[dataset.Handover](handovers)
	db.Throughput = table[dataset.ThroughputSample](throughput)
	db.RTT = table[dataset.RTTSample](rtt)
	db.AppRuns = table[dataset.AppRun](appRuns)

	slices.SortFunc(matches, func(a, b assignment) int {
		return cmp.Or(a.app.Start.Compare(b.app.Start), cmp.Compare(a.id, b.id))
	})
	for _, m := range matches {
		c, app, test := m.c, m.app, &db.Tests[m.id-1]
		for _, h := range c.handovers {
			h.TestID = test.ID
			db.Handovers = append(db.Handovers, h)
		}
		switch test.Kind {
		case dataset.ThroughputDL, dataset.ThroughputUL:
			for _, s := range c.throughput {
				s.TestID, s.Edge, s.Static = test.ID, test.Edge, test.Static
				db.Throughput = append(db.Throughput, s)
			}
		case dataset.RTTTest:
			for _, e := range app.RTTs {
				at := test.Start.Add(unit.DurationFromMS(e.OffsetMS))
				s := dataset.RTTSample{
					TestID: test.ID, Time: at, Op: c.op,
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
			db.AppRuns = append(db.AppRuns, appRun(test, app, c))
		}
		c.handovers, c.throughput, c.rows = nil, nil, nil
	}
	return db
}

// test is the matched capture's test row.
func (m *assignment) test() dataset.Test {
	c, app := m.c, m.app
	return dataset.Test{
		ID:       m.id,
		Kind:     c.kind,
		Op:       c.op,
		Start:    app.Start,
		End:      app.Start.Add(time.Duration(app.DurationSec * float64(time.Second))),
		StartOdo: c.startOdo,
		EndOdo:   c.endOdo,
		Server:   app.Server,
		Edge:     app.Edge,
		Static:   app.Static,
		Timezone: c.timezone,
	}
}

// table returns an empty table with room for n rows, or nil for none, as
// appending to a nil table would.
func table[T any](n int) []T {
	if n == 0 {
		return nil
	}
	return make([]T, 0, n)
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
func appRun(test *dataset.Test, app *AppLog, c *Capture) dataset.AppRun {
	r := app.Result
	r.TestID, r.Kind, r.Op, r.Start = test.ID, test.Kind, test.Op, test.Start
	r.Compressed = app.Compressed
	r.HighSpeedFrac, r.Edge = c.highSpeedFrac, test.Edge
	r.Handovers, r.Static = len(c.handovers), test.Static
	return r
}

// sortDB orders the tables for reproducible output: tests by ID, and
// every other table by time, ties by test ID. Rows that tie on both
// belong to one capture, which emit copies whole and in its own order,
// and the sorts are stable, so the order does not depend on the order
// emit takes the captures in. The passive table needs no sort:
// PassiveLog.expand builds it in order.
func sortDB(db *dataset.DB) {
	slices.SortStableFunc(db.Throughput, func(a, b dataset.ThroughputSample) int {
		return cmp.Or(a.Time.Compare(b.Time), cmp.Compare(a.TestID, b.TestID))
	})
	slices.SortStableFunc(db.RTT, func(a, b dataset.RTTSample) int {
		return cmp.Or(a.Time.Compare(b.Time), cmp.Compare(a.TestID, b.TestID))
	})
	slices.SortStableFunc(db.Handovers, func(a, b dataset.Handover) int {
		return cmp.Or(a.Time.Compare(b.Time), cmp.Compare(a.TestID, b.TestID))
	})
	slices.SortStableFunc(db.AppRuns, func(a, b dataset.AppRun) int {
		return cmp.Or(a.Start.Compare(b.Start), cmp.Compare(a.TestID, b.TestID))
	})
}

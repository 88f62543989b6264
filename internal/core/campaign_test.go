package core

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"github.com/nuwins/cellwheels/internal/dataset"
	"github.com/nuwins/cellwheels/internal/geo"
	"github.com/nuwins/cellwheels/internal/logsync"
	"github.com/nuwins/cellwheels/internal/obs"
	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/unit"
	"github.com/nuwins/cellwheels/internal/xcal"
)

// quickConfig is a small campaign used across the core tests: ~120 km of
// driving with shortened app tests, all subsystems on.
func quickConfig(seed int64) Config {
	return Config{
		Seed:           seed,
		Limit:          120 * unit.Kilometer,
		VideoDuration:  40 * time.Second,
		GamingDuration: 30 * time.Second,
	}
}

// sharedDB runs one quick campaign and caches it for all core tests.
var sharedDB *dataset.DB

func quickDB(t *testing.T) *dataset.DB {
	t.Helper()
	if sharedDB != nil {
		return sharedDB
	}
	db, err := NewCampaign(quickConfig(7)).RunAndMerge()
	if err != nil {
		t.Fatal(err)
	}
	sharedDB = db
	return db
}

func TestCampaignProducesAllRecordKinds(t *testing.T) {
	db := quickDB(t)
	if len(db.Tests) == 0 {
		t.Fatal("no tests")
	}
	if len(db.Throughput) == 0 {
		t.Error("no throughput samples")
	}
	if len(db.RTT) == 0 {
		t.Error("no RTT samples")
	}
	if len(db.AppRuns) == 0 {
		t.Error("no app runs")
	}
	if len(db.Passive) == 0 {
		t.Error("no passive coverage rows")
	}
	if len(db.Handovers) == 0 {
		t.Error("no handovers")
	}
}

func TestCampaignCoversAllKindsAndOperators(t *testing.T) {
	db := quickDB(t)
	kinds := map[dataset.TestKind]bool{}
	ops := map[radio.Operator]bool{}
	for _, test := range db.Tests {
		kinds[test.Kind] = true
		ops[test.Op] = true
	}
	for k := dataset.ThroughputDL; k <= dataset.AppGaming; k++ {
		if !kinds[k] {
			t.Errorf("kind %v never ran", k)
		}
	}
	for _, op := range radio.Operators() {
		if !ops[op] {
			t.Errorf("operator %v never tested", op)
		}
	}
}

func TestCampaignStaticBaselinesExist(t *testing.T) {
	db := quickDB(t)
	// 120 km from LA reaches only LA itself, but that is one city's
	// static battery.
	statics := db.TestsWhere(func(tt dataset.Test) bool { return tt.Static })
	if len(statics) == 0 {
		t.Fatal("no static baselines ran")
	}
	for _, tt := range statics {
		if tt.Miles() > 0.01 {
			t.Errorf("static test %d moved %v miles", tt.ID, tt.Miles())
		}
	}
}

func TestCampaignThroughputSamplesPlausible(t *testing.T) {
	db := quickDB(t)
	for _, s := range db.Throughput {
		if s.Mbps < 0 || s.Mbps > 3500 {
			t.Fatalf("implausible sample %v Mbps", s.Mbps)
		}
		if s.MCS < 0 || s.MCS > radio.MaxMCS {
			t.Fatalf("MCS %d", s.MCS)
		}
		if s.SpeedMPH < 0 || s.SpeedMPH > 95 {
			t.Fatalf("speed %v", s.SpeedMPH)
		}
	}
	// Downlink and uplink both present.
	dl := db.ThroughputWhere(func(s dataset.ThroughputSample) bool { return s.Dir == radio.Downlink })
	ul := db.ThroughputWhere(func(s dataset.ThroughputSample) bool { return s.Dir == radio.Uplink })
	if len(dl) == 0 || len(ul) == 0 {
		t.Errorf("dl=%d ul=%d samples", len(dl), len(ul))
	}
}

func TestCampaignRTTSamplesPlausible(t *testing.T) {
	db := quickDB(t)
	for _, s := range db.RTT {
		if s.Lost {
			continue
		}
		if s.RTTMS <= 0 || s.RTTMS > 3100 {
			t.Fatalf("RTT %v ms", s.RTTMS)
		}
	}
}

func TestCampaignEdgeOnlyVerizon(t *testing.T) {
	db := quickDB(t)
	edgeTests := db.TestsWhere(func(tt dataset.Test) bool { return tt.Edge })
	if len(edgeTests) == 0 {
		t.Fatal("no edge tests near LA (an edge city)")
	}
	for _, tt := range edgeTests {
		if tt.Op != radio.Verizon {
			t.Errorf("edge test on %v", tt.Op)
		}
	}
}

func TestCampaignMetaAccounting(t *testing.T) {
	db := quickDB(t)
	if db.Meta.BytesRx <= 0 || db.Meta.BytesTx <= 0 {
		t.Errorf("byte totals rx=%v tx=%v", db.Meta.BytesRx, db.Meta.BytesTx)
	}
	if db.Meta.BytesRx <= db.Meta.BytesTx {
		t.Error("downlink bytes should dominate (Table 1)")
	}
	for _, op := range radio.Operators() {
		if db.Meta.UniqueCells[op.String()] == 0 {
			t.Errorf("%v: zero unique cells", op)
		}
		if db.Meta.RuntimeByOp[op.String()] <= 0 {
			t.Errorf("%v: zero runtime", op)
		}
	}
}

func TestCampaignAppRunsCarryMetrics(t *testing.T) {
	db := quickDB(t)
	for _, r := range db.AppRuns {
		switch r.Kind {
		case dataset.AppAR:
			if r.MAP < 0 || r.MAP > 38.45 {
				t.Errorf("AR mAP %v", r.MAP)
			}
		case dataset.AppVideo:
			if r.RebufferFrac < 0 || r.RebufferFrac > 1 {
				t.Errorf("video rebuffer %v", r.RebufferFrac)
			}
		case dataset.AppGaming:
			if r.SendBitrate < 0 || r.SendBitrate > 100.01 {
				t.Errorf("gaming bitrate %v", r.SendBitrate)
			}
		}
		if r.HighSpeedFrac < 0 || r.HighSpeedFrac > 1 {
			t.Errorf("high-speed frac %v", r.HighSpeedFrac)
		}
	}
}

func TestCampaignDeterministic(t *testing.T) {
	cfg := Config{Seed: 11, Limit: 30 * unit.Kilometer, SkipApps: true, SkipStatic: true}
	a, err := NewCampaign(cfg).RunAndMerge()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewCampaign(cfg).RunAndMerge()
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("summaries differ: %v vs %v", a, b)
	}
	if len(a.Throughput) != len(b.Throughput) {
		t.Fatal("sample counts differ")
	}
	for i := range a.Throughput {
		if a.Throughput[i] != b.Throughput[i] {
			t.Fatalf("sample %d differs", i)
		}
	}
}

func TestCampaignSeedsDiffer(t *testing.T) {
	cfg1 := Config{Seed: 1, Limit: 20 * unit.Kilometer, SkipApps: true, SkipStatic: true, SkipPassive: true}
	cfg2 := cfg1
	cfg2.Seed = 2
	a, err := NewCampaign(cfg1).RunAndMerge()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewCampaign(cfg2).RunAndMerge()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Throughput) > 0 && len(b.Throughput) > 0 &&
		len(a.Throughput) == len(b.Throughput) {
		same := true
		for i := range a.Throughput {
			if a.Throughput[i].Mbps != b.Throughput[i].Mbps {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical throughput traces")
		}
	}
}

func TestCampaignSkipFlags(t *testing.T) {
	cfg := Config{Seed: 3, Limit: 20 * unit.Kilometer, SkipApps: true, SkipStatic: true, SkipPassive: true}
	db, err := NewCampaign(cfg).RunAndMerge()
	if err != nil {
		t.Fatal(err)
	}
	if len(db.Passive) != 0 {
		t.Error("passive rows despite SkipPassive")
	}
	if n := len(db.AppRuns); n != 0 {
		t.Errorf("%d app runs despite SkipApps", n)
	}
	if n := len(db.TestsWhere(func(tt dataset.Test) bool { return tt.Static })); n != 0 {
		t.Errorf("%d static tests despite SkipStatic", n)
	}
}

func TestCampaignDisableEdge(t *testing.T) {
	cfg := Config{Seed: 4, Limit: 20 * unit.Kilometer, SkipApps: true, SkipStatic: true, SkipPassive: true, DisableEdge: true}
	db, err := NewCampaign(cfg).RunAndMerge()
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range db.Tests {
		if tt.Edge {
			t.Fatalf("edge test %d despite DisableEdge", tt.ID)
		}
	}
}

func TestCampaignTimesOrderedWithinTests(t *testing.T) {
	db := quickDB(t)
	for _, tt := range db.Tests {
		if tt.End.Before(tt.Start) {
			t.Errorf("test %d ends before it starts", tt.ID)
		}
	}
	byID := map[int]*dataset.Test{}
	for i := range db.Tests {
		byID[db.Tests[i].ID] = &db.Tests[i]
	}
	for _, s := range db.Throughput {
		tt := byID[s.TestID]
		if tt == nil {
			t.Fatal("sample with unknown test")
		}
		if s.Time.Before(tt.Start.Add(-time.Second)) || s.Time.After(tt.End.Add(time.Second)) {
			t.Errorf("sample at %v outside test %d window [%v, %v]", s.Time, tt.ID, tt.Start, tt.End)
		}
	}
}

// TestRunHandsOverCaptures pins that the lanes keep no raw capture: each
// XCAL file is normalised when its test ends and each passive row at the
// end of its block, so after Run no lane and no Raw holds an xcal.Row or
// an xcal.LoggerRow, and the normalised captures move into the Raw
// rather than being shared with the lanes — a finished campaign, which
// the facade keeps for its maps and crowd results, must not pin them.
func TestRunHandsOverCaptures(t *testing.T) {
	cfg := quickConfig(3)
	cfg.Limit = 20 * unit.Kilometer
	cfg.Obs = obs.New()
	c := NewCampaign(cfg)
	raw := c.Run()

	// The walk must see a raw row where there is one.
	if path := rawRowPath(reflect.ValueOf(&xcal.File{Rows: make([]xcal.Row, 0, 1)})); path != ".Rows" {
		t.Fatalf("rawRowPath finds a file's row buffer at %q, want .Rows", path)
	}
	if path := rawRowPath(reflect.ValueOf(c.lanes)); path != "" {
		t.Errorf("a lane still holds raw rows after Run at lanes%s", path)
	}
	if path := rawRowPath(reflect.ValueOf(raw)); path != "" {
		t.Errorf("Raw holds raw rows at Raw%s", path)
	}

	loggers := 0
	for _, l := range c.lanes {
		if l.phone.captures != nil || l.phone.apps != nil || l.cells.chunks != nil || l.seconds != nil {
			t.Errorf("lane %s: still holds %d captures, %d app logs and %d chunks of passive cells after Run, or passive seconds", l.op.Short(), len(l.phone.captures), len(l.phone.apps), len(l.cells.chunks))
		}
		if l.logger != nil {
			loggers++
		}
	}
	if loggers == 0 {
		t.Fatal("no passive loggers in the campaign")
	}

	if raw.Files != nil {
		t.Errorf("Raw.Files carries %d files", len(raw.Files))
	}
	captures := map[string]int{}
	for _, c := range raw.Captures {
		op, _, _ := strings.Cut(c.Name, "_")
		captures[op]++
	}
	counters := cfg.Obs.Snapshot().Counters
	for _, l := range c.lanes {
		op := l.op.Short()
		want := counters["lane/"+op+"/files"]
		if want == 0 || int64(captures[op]) != want {
			t.Errorf("lane %s: Raw carries %d captures, lane/%s/files counter = %d", op, captures[op], op, want)
		}
		if l.logger != nil && len(raw.Passive.Columns[l.op]) == 0 {
			t.Errorf("lane %s: Raw carries no passive cells", op)
		}
	}
	if len(raw.Passive.Seconds) == 0 {
		t.Error("Raw carries no passive seconds")
	}
	if len(raw.Apps) != len(raw.Captures) {
		t.Errorf("Raw carries %d app logs for %d captures", len(raw.Apps), len(raw.Captures))
	}
}

// rawRowPath walks every value reachable from v and returns the path to
// the first slice that holds or pins an xcal.Row or xcal.LoggerRow, or ""
// when there is none. Types that cannot reach either are not entered.
func rawRowPath(v reflect.Value) string {
	rowTypes := map[reflect.Type]bool{reflect.TypeOf(xcal.Row{}): true, reflect.TypeOf(xcal.LoggerRow{}): true}
	reach := map[reflect.Type]bool{}
	var mayReach func(t reflect.Type) bool
	mayReach = func(t reflect.Type) bool {
		if r, ok := reach[t]; ok {
			return r
		}
		reach[t] = true // a recursive type is assumed to reach a row: walking it costs only time
		r := false
		switch t.Kind() {
		case reflect.Interface:
			r = true
		case reflect.Pointer, reflect.Slice, reflect.Array:
			r = rowTypes[t.Elem()] || mayReach(t.Elem())
		case reflect.Map:
			r = mayReach(t.Key()) || mayReach(t.Elem())
		case reflect.Struct:
			for i := 0; i < t.NumField() && !r; i++ {
				r = mayReach(t.Field(i).Type)
			}
		}
		reach[t] = r
		return r
	}
	seen := map[uintptr]bool{}
	var walk func(v reflect.Value) (string, bool)
	walk = func(v reflect.Value) (string, bool) {
		if !v.IsValid() || !mayReach(v.Type()) {
			return "", false
		}
		switch v.Kind() {
		case reflect.Interface:
			return walk(v.Elem())
		case reflect.Pointer:
			if v.IsNil() || seen[v.Pointer()] {
				return "", false
			}
			seen[v.Pointer()] = true
			return walk(v.Elem())
		case reflect.Slice, reflect.Array:
			if v.Kind() == reflect.Slice && rowTypes[v.Type().Elem()] && v.Cap() > 0 {
				return "", true
			}
			for i := 0; i < v.Len(); i++ {
				if p, ok := walk(v.Index(i)); ok {
					return fmt.Sprintf("[%d]", i) + p, true
				}
			}
		case reflect.Map:
			for it := v.MapRange(); it.Next(); {
				if p, ok := walk(it.Value()); ok {
					return fmt.Sprintf("[%v]", it.Key()) + p, true
				}
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				if p, ok := walk(v.Field(i)); ok {
					return "." + v.Type().Field(i).Name + p, true
				}
			}
		}
		return "", false
	}
	p, ok := walk(v)
	if ok && p == "" {
		p = "(itself)"
	}
	return p
}

// TestMergeConsumesRaw pins Campaign.Merge's ownership of its Raw: a
// merge leaves no capture table and no passive chunk in the Raw, and
// what it builds is the dataset a merge of an equal campaign's Raw
// builds, byte for byte.
func TestMergeConsumesRaw(t *testing.T) {
	cfg := quickConfig(4)
	cfg.Limit = 20 * unit.Kilometer
	var sums [2][32]byte
	for i := range sums {
		c := NewCampaign(cfg)
		raw := c.Run()
		if heldPath(&raw) == "" {
			t.Fatal("Raw holds no table to consume")
		}
		db, err := c.MergeMatched(raw)
		if err != nil {
			t.Fatal(err)
		}
		if len(db.Passive) == 0 || len(db.Throughput) == 0 {
			t.Fatalf("merge %d: %d passive and %d throughput samples", i, len(db.Passive), len(db.Throughput))
		}
		h := sha256.New()
		if err := db.WriteJSON(h); err != nil {
			t.Fatal(err)
		}
		copy(sums[i][:], h.Sum(nil))
		if i > 0 {
			continue
		}
		// The Raw keeps no row of what the dataset now holds.
		if path := heldPath(&raw); path != "" {
			t.Errorf("Raw still holds a table at Raw%s after Merge", path)
		}
	}
	if sums[0] != sums[1] {
		t.Errorf("merges of two equal campaigns' Raws gave different datasets: %x, %x", sums[0], sums[1])
	}
}

// TestMergeAllocatesItsTables pins what a merge allocates to what it
// returns: at most 1.2 times the bytes of the database's tables, counted
// at their capacity. A merge that copies a table twice, or grows one by
// append, allocates more. The test must not run in parallel: TotalAlloc
// counts every goroutine's allocations.
func TestMergeAllocatesItsTables(t *testing.T) {
	cfg := quickConfig(1)
	cfg.Limit = 40 * unit.Kilometer
	c := NewCampaign(cfg)
	raw := c.Run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	db, err := c.MergeMatched(raw)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	tables := capBytes(db.Tests) + capBytes(db.Throughput) + capBytes(db.RTT) +
		capBytes(db.Handovers) + capBytes(db.AppRuns) + capBytes(db.Passive)
	alloc := after.TotalAlloc - before.TotalAlloc
	if float64(alloc) > 1.2*float64(tables) {
		t.Errorf("Merge allocated %d bytes for %d bytes of tables (%.2f×), want at most 1.2×", alloc, tables, float64(alloc)/float64(tables))
	}
}

// capBytes is the bytes a table's backing array holds.
func capBytes[T any](rows []T) uint64 {
	var row T
	return uint64(cap(rows)) * uint64(unsafe.Sizeof(row))
}

// heldPath returns the path to the first non-empty table a merged Raw
// should have dropped: a capture's handovers, throughput samples or rows
// (unexported, so read by reflection), an app log's RTT entries, or a
// chunk of the passive log. It is "" when there is none.
func heldPath(raw *Raw) string {
	for i := range raw.Captures {
		c := reflect.ValueOf(&raw.Captures[i]).Elem()
		for _, f := range []string{"handovers", "throughput", "rows"} {
			if c.FieldByName(f).Len() > 0 {
				return fmt.Sprintf(".Captures[%d].%s", i, f)
			}
		}
	}
	for i, a := range raw.Apps {
		if len(a.RTTs) > 0 {
			return fmt.Sprintf(".Apps[%d].RTTs", i)
		}
	}
	for i, c := range raw.Passive.Seconds {
		if c != nil {
			return fmt.Sprintf(".Passive.Seconds[%d]", i)
		}
	}
	for _, op := range radio.Operators() {
		for i, c := range raw.Passive.Columns[op] {
			if c != nil {
				return fmt.Sprintf(".Passive.Columns[%v][%d]", op, i)
			}
		}
	}
	return ""
}

// TestLoggersLogSameSeconds pins what lets one lane keep the passive
// log's seconds for all three: over a drive that crosses a static hold
// and a day boundary, every lane's logger logs its rows at the same
// instants, zones, GPS fixes and speeds. It steps the lanes' loggers
// through the campaign's timeline side by side, then runs the lanes with
// every lane keeping the seconds, and requires them equal.
func TestLoggersLogSameSeconds(t *testing.T) {
	cfg := Config{Seed: 2, Limit: 15 * unit.Kilometer, SkipApps: true}
	cfg.Drive.Days = 500 // a day's quota of about 11 km

	c := NewCampaign(cfg)
	holds, lastDay := 0, 0
	cur := c.timeline.Cursor()
	for {
		ts, ok := cur.Next()
		if !ok {
			break
		}
		if ts.HoldFirst {
			holds++
		}
		lastDay = ts.Day
		for _, l := range c.lanes {
			l.logger.StepDrive(&ts.DriveState, Tick)
		}
	}
	if holds == 0 || lastDay == 0 {
		t.Fatalf("the drive crosses %d static holds and ends on day %d, want a hold and a later day", holds, lastDay)
	}
	first := c.lanes[0].logger.Rows()
	if len(first) == 0 {
		t.Fatal("no passive rows")
	}
	for _, l := range c.lanes[1:] {
		rows := l.logger.Rows()
		if len(rows) != len(first) {
			t.Fatalf("lane %s logged %d rows, lane %s %d", l.op.Short(), len(rows), c.lanes[0].op.Short(), len(first))
		}
		for i, r := range rows {
			f := first[i]
			if !r.Time.Equal(f.Time) || r.Zone != f.Zone || r.Loc != f.Loc || r.SpeedMPH != f.SpeedMPH {
				t.Fatalf("lane %s row %d = %+v, lane %s's = %+v", l.op.Short(), i, r, c.lanes[0].op.Short(), f)
			}
		}
	}

	c = NewCampaign(cfg)
	for _, l := range c.lanes {
		if l.seconds == nil {
			l.seconds = &chunked[logsync.PassiveSecond]{}
		}
	}
	runLanes(c.timeline, c.wire, c.lanes, 2, nil)
	want := slices.Concat(c.lanes[0].seconds.chunks...)
	if len(want) != len(first) {
		t.Fatalf("the first lane kept %d seconds, its logger logged %d rows", len(want), len(first))
	}
	for _, l := range c.lanes {
		if got := slices.Concat(l.seconds.chunks...); !slices.Equal(got, want) {
			t.Errorf("lane %s kept %d seconds unlike lane %s's %d", l.op.Short(), len(got), c.lanes[0].op.Short(), len(want))
		}
		if n := len(slices.Concat(l.cells.chunks...)); n != len(want) {
			t.Errorf("lane %s kept %d cells for %d seconds", l.op.Short(), n, len(want))
		}
	}
}

// TestRawPassiveBytesPerSecond bounds what a Raw holds per logged
// second: the seconds' shared facts once and a (technology, cell) per
// logger, under half of the three dataset rows the merge expands them
// into.
func TestRawPassiveBytesPerSecond(t *testing.T) {
	const bound = 112
	perSecond := unsafe.Sizeof(logsync.PassiveSecond{}) + uintptr(radio.NumOperators)*unsafe.Sizeof(logsync.PassiveCell{})
	rows := uintptr(radio.NumOperators) * unsafe.Sizeof(dataset.CoverageSample{})
	if perSecond > bound || 2*perSecond > rows {
		t.Errorf("a logged second takes %d bytes to store, want at most %d and under half of its %d-byte rows", perSecond, bound, rows)
	}

	cfg := Config{Seed: 3, Limit: 10 * unit.Kilometer, SkipApps: true, SkipStatic: true}
	raw := NewCampaign(cfg).Run()
	seconds := len(slices.Concat(raw.Passive.Seconds...))
	if seconds == 0 {
		t.Fatal("no passive seconds")
	}
	if stored := tableBytes(reflect.ValueOf(raw.Passive)); stored > uintptr(seconds)*perSecond {
		t.Errorf("Raw stores %d bytes of passive log for %d seconds, %.1f a second; want at most %d", stored, seconds, float64(stored)/float64(seconds), perSecond)
	}
}

// tableBytes is the bytes of the rows in the tables reachable from v: a
// slice of rows counts its length times the row's size.
func tableBytes(v reflect.Value) uintptr {
	var n uintptr
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			n += tableBytes(v.Field(i))
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			n += tableBytes(it.Value())
		}
	case reflect.Slice:
		if v.Type().Elem().Kind() != reflect.Slice {
			return uintptr(v.Len()) * v.Type().Elem().Size()
		}
		for i := 0; i < v.Len(); i++ {
			n += tableBytes(v.Index(i))
		}
	}
	return n
}

// appStartText is an app log's former start stamp round trip, kept here
// as the reference the typed start must equal: the RTT and video apps
// rendered the start as naive local time beside a zone name, the others
// as RFC3339Nano in UTC, and the merge parsed the stamp back.
func appStartText(t *testing.T, kind dataset.TestKind, at time.Time, zone geo.Timezone) time.Time {
	t.Helper()
	if kind != dataset.RTTTest && kind != dataset.AppVideo {
		back, err := time.Parse(time.RFC3339Nano, at.UTC().Format(time.RFC3339Nano))
		if err != nil {
			t.Fatal(err)
		}
		return back.UTC()
	}
	const layout = "2006-01-02 15:04:05"
	name := zone.String()
	for z := geo.Pacific; z <= geo.Eastern; z++ {
		if z.String() != name {
			continue
		}
		back, err := time.ParseInLocation(layout, at.In(zone.Location()).Format(layout), z.Location())
		if err != nil {
			t.Fatal(err)
		}
		return back.UTC()
	}
	t.Fatalf("zone %q does not parse back", name)
	return time.Time{}
}

// TestAppLogStartMatchesTextPath starts a phone's tests, its whole
// rotation several times over, at random sub-second instants in each of
// the route's zones, and requires every app log's typed start to equal
// what the text round trip gives.
func TestAppLogStartMatchesTextPath(t *testing.T) {
	c := NewCampaign(quickConfig(3))
	p := c.lanes[0].phone
	rng := rand.New(rand.NewSource(9))
	base := time.Date(2022, 8, 8, 16, 0, 0, 0, time.UTC)
	kinds := map[dataset.TestKind]bool{}
	zones := 0
	for odo := unit.Meters(0); odo < c.route.Total(); odo += 100 * unit.Kilometer {
		wp := c.route.At(odo)
		if wp.Timezone != geo.Timezone(zones) {
			continue
		}
		for range 4 * len(p.specs) {
			// An instant in the zone's local time: the app log holds it in UTC.
			at := base.Add(time.Duration(rng.Int63n(int64(8 * 24 * time.Hour)))).In(wp.Timezone.Location())
			ds := geo.DriveState{Time: at, Waypoint: wp}
			p.startTest(&c.cfg, &ds)
			kinds[p.spec.kind] = true
			if got, want := p.appLog.Start, appStartText(t, p.spec.kind, ds.Time, wp.Timezone); got != want {
				t.Fatalf("%v test at %v in %v: start %v, want %v", p.spec.kind, ds.Time, wp.Timezone, got, want)
			}
		}
		zones++
	}
	if nKinds := int(dataset.AppGaming) + 1; zones != geo.NumTimezones || len(kinds) != nKinds {
		t.Fatalf("started %d kinds in %d zones, want %d in %d", len(kinds), zones, nKinds, geo.NumTimezones)
	}
}

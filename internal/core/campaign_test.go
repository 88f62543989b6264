package core

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/nuwins/cellwheels/internal/dataset"
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
	for _, k := range dataset.Kinds() {
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
	for _, s := range db.Throughput {
		tt := db.TestByID(s.TestID)
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
		if l.phone.captures != nil || l.phone.apps != nil || l.passive.Samples != nil {
			t.Errorf("lane %s: still holds %d captures, %d app logs and %d passive samples after Run", l.op.Short(), len(l.phone.captures), len(l.phone.apps), len(l.passive.Samples))
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
		if l.logger != nil && len(raw.Passive[op].Samples) == 0 {
			t.Errorf("lane %s: Raw carries no passive samples", op)
		}
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

// TestMergeLeavesRawIntact pins that Merge only reads its Raw: merging
// one Raw twice gives the same dataset bytes.
func TestMergeLeavesRawIntact(t *testing.T) {
	cfg := quickConfig(4)
	cfg.Limit = 20 * unit.Kilometer
	c := NewCampaign(cfg)
	raw := c.Run()
	var sums [2][32]byte
	for i := range sums {
		db, err := c.MergeMatched(raw)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		if err := db.WriteJSON(h); err != nil {
			t.Fatal(err)
		}
		copy(sums[i][:], h.Sum(nil))
		if len(db.Passive) == 0 || len(db.Throughput) == 0 {
			t.Fatalf("merge %d: %d passive and %d throughput samples", i, len(db.Passive), len(db.Throughput))
		}
	}
	if sums[0] != sums[1] {
		t.Errorf("merging one Raw twice gave different datasets: %x, %x", sums[0], sums[1])
	}
}

// TestArchiveSinkFirstErrorInOperatorOrder pins the archive sink's
// contract: every lane hands it its captures until the first error,
// and Run reports the first lane's error in operator order.
func TestArchiveSinkFirstErrorInOperatorOrder(t *testing.T) {
	cfg := quickConfig(2)
	cfg.Limit = 10 * unit.Kilometer
	var mu sync.Mutex
	calls := map[string]int{}
	first := map[string]string{}
	cfg.Archive = func(f *xcal.File) error {
		mu.Lock()
		defer mu.Unlock()
		if calls[f.Op]++; calls[f.Op] == 1 {
			first[f.Op] = f.Name
		}
		return fmt.Errorf("archive %s", f.Name)
	}
	c := NewCampaign(cfg)
	raw := c.Run()
	for _, l := range c.lanes {
		if n := calls[l.op.Short()]; n != 1 {
			t.Errorf("lane %s called the sink %d times after its first error", l.op.Short(), n)
		}
	}
	if want := "archive " + first[c.lanes[0].op.Short()]; fmt.Sprint(raw.ArchiveErr) != want {
		t.Errorf("ArchiveErr = %v, want %s", raw.ArchiveErr, want)
	}
}

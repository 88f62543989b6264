package core

import (
	"testing"
	"time"

	"github.com/nuwins/cellwheels/internal/dataset"
	"github.com/nuwins/cellwheels/internal/obs"
	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/unit"
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

// TestRunHandsOverCaptures pins that Run moves the raw captures into the
// Raw it returns rather than sharing them with the lanes: a finished
// campaign, which the facade keeps for its maps and crowd results, must
// not pin the raw archive once the Raw is merged and dropped.
func TestRunHandsOverCaptures(t *testing.T) {
	cfg := quickConfig(3)
	cfg.Limit = 20 * unit.Kilometer
	cfg.Obs = obs.New()
	c := NewCampaign(cfg)
	raw := c.Run()

	loggers := 0
	for _, l := range c.lanes {
		if l.phone.files != nil || l.phone.apps != nil {
			t.Errorf("lane %s: phone still holds %d files and %d app logs after Run", l.op.Short(), len(l.phone.files), len(l.phone.apps))
		}
		if l.logger != nil {
			loggers++
			if rows := l.logger.Rows(); rows != nil {
				t.Errorf("lane %s: logger still holds %d rows after Run", l.op.Short(), len(rows))
			}
		}
	}
	if loggers == 0 {
		t.Fatal("no passive loggers in the campaign")
	}

	files := map[string]int{}
	for _, f := range raw.Files {
		files[f.Op]++
	}
	counters := cfg.Obs.Snapshot().Counters
	for _, l := range c.lanes {
		op := l.op.Short()
		want := counters["lane/"+op+"/files"]
		if want == 0 || int64(files[op]) != want {
			t.Errorf("lane %s: Raw carries %d files, lane/%s/files counter = %d", op, files[op], op, want)
		}
		if l.logger != nil && len(raw.Logger[op]) == 0 {
			t.Errorf("lane %s: Raw carries no passive rows", op)
		}
	}
	if len(raw.Apps) != len(raw.Files) {
		t.Errorf("Raw carries %d app logs for %d files", len(raw.Apps), len(raw.Files))
	}
}

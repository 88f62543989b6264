package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/nuwins/cellwheels/internal/dataset"
	"github.com/nuwins/cellwheels/internal/geo"
	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/unit"
)

// TestReportMatchesSections pins Report, which renders every section
// from one shared view, to the sections rendered one by one, each from
// a view of its own.
func TestReportMatchesSections(t *testing.T) {
	db := quickDB(t)
	maps := FigureCoverageMaps(db, geo.DefaultRoute(), 100)
	given := func() CoverageMaps { return maps }
	var want strings.Builder
	for _, s := range sections {
		out, ok := Section(db, given, s.ids[0])
		if !ok {
			t.Fatalf("section %s not found", s.ids[0])
		}
		want.WriteString(out)
		want.WriteString("\n")
	}
	if got := Report(db, maps); got != want.String() {
		t.Errorf("Report differs from its sections rendered one by one:\n--- got ---\n%s--- want ---\n%s", got, want.String())
	}
}

// TestFiguresRepeatable requires every figure and table to
// hold the same values, bit for bit, on every call over one database.
// A figure that adds floats up in map iteration order fails here.
func TestFiguresRepeatable(t *testing.T) {
	db := quickDB(t)
	all := func() string {
		var b strings.Builder
		for _, v := range []any{
			TableDatasetStats(db), FigureCoverageMaps(db, geo.DefaultRoute(), 100),
			FigureCoverage(db), FigureStaticVsDriving(db), perTechnology(newView(db)),
			timezonePerf(newView(db)), operatorDiversity(newView(db)), speedScatter(newView(db)),
			TableKPICorrelation(db), newView(db).longTimescale(), highSpeed5GShare(newView(db)),
			TableOoklaComparison(db), FigureHandoverStats(db), handoverImpact(newView(db)),
			FigureARApp(db), FigureCAVApp(db), FigureVideo(db), FigureGaming(db),
			multivariate(newView(db)),
		} {
			fmt.Fprintf(&b, "%#v\n", v)
		}
		return b.String()
	}
	want := all()
	for i := 0; i < 30; i++ {
		if got := all(); got != want {
			t.Fatalf("call %d differs from the first", i+2)
		}
	}
}

// syntheticDB is a database of random rows over every operator,
// direction, technology and timezone. With odd, the values also hold
// NaN and -0, which no sort orders one way only.
func syntheticDB(rng *rand.Rand, odd bool) *dataset.DB {
	value := func() float64 {
		switch r := rng.Intn(20); {
		case r < 5:
			return float64(rng.Intn(4)) // duplicates, +0 among them
		case odd && r == 5:
			return math.Copysign(0, -1)
		case odd && r == 6:
			return math.NaN()
		default:
			return rng.ExpFloat64() * 50
		}
	}
	db := &dataset.DB{}
	for i := 0; i < 3000; i++ {
		db.Throughput = append(db.Throughput, dataset.ThroughputSample{
			TestID:   rng.Intn(40),
			Op:       radio.Operator(rng.Intn(radio.NumOperators)),
			Dir:      radio.Direction(rng.Intn(radio.NumDirections)),
			Tech:     radio.Technology(rng.Intn(radio.NumTechnologies)),
			Timezone: geo.Timezone(rng.Intn(geo.NumTimezones)),
			Mbps:     value(),
			SpeedMPH: rng.Float64() * 80,
			Edge:     rng.Intn(2) == 0,
			Static:   rng.Intn(4) == 0,
		})
		db.RTT = append(db.RTT, dataset.RTTSample{
			TestID: rng.Intn(40),
			Op:     radio.Operator(rng.Intn(radio.NumOperators)),
			Tech:   radio.Technology(rng.Intn(radio.NumTechnologies)),
			RTTMS:  value(),
			Lost:   rng.Intn(10) == 0,
			Edge:   rng.Intn(2) == 0,
			Static: rng.Intn(4) == 0,
		})
	}
	return db
}

// TestViewCutsMatchSummarize requires every cut of the view to
// summarize as stats.Summarize does the same rows' values in table
// order, and every part its splits summarize, read off the ranking of a
// table's plain values or sorted for values holding NaN and -0, to
// summarize as summarizeOrZero does that part's values in table order,
// and to count the values above 0 that Figure 6 reads. Each split has
// more parts than keys in use, so some parts are empty.
func TestViewCutsMatchSummarize(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// %#v prints -0 and NaN as such, so equal strings are equal bits up
	// to NaN payloads.
	same := func(a, b any) bool { return fmt.Sprintf("%#v", a) == fmt.Sprintf("%#v", b) }
	for _, odd := range []bool{false, true} {
		db := syntheticDB(rng, odd)
		v := newView(db)
		// checkParts splits c by key and checks each part against the
		// values val gives its rows.
		checkParts := func(name string, c *cut, parts int, key func(p int32) int, val func(p int32) float64) {
			t.Helper()
			got := c.summarizeBy(parts, key)
			if len(got) != parts {
				t.Fatalf("odd=%v %s: %d parts, want %d", odd, name, len(got), parts)
			}
			for k := range got {
				var xs []float64
				positive := 0
				for _, p := range c.pos {
					if key(p) == k {
						xs = append(xs, val(p))
						if val(p) > 0 {
							positive++
						}
					}
				}
				if want := (part{summarizeOrZero(xs), positive}); !same(got[k], want) {
					t.Errorf("odd=%v %s part %d: %+v, want %+v", odd, name, k, got[k], want)
				}
			}
		}
		tput := func(p int32) float64 { return db.Throughput[p].Mbps }
		rtt := func(p int32) float64 { return db.RTT[p].RTTMS }
		const nt = radio.NumTechnologies
		tputKeys := map[string]func(p int32) int{
			"tech":      func(p int32) int { return int(db.Throughput[p].Tech) },
			"timezone":  func(p int32) int { return int(db.Throughput[p].Timezone) },
			"speed":     func(p int32) int { return int(db.Throughput[p].SpeedMPH/20)*nt + int(db.Throughput[p].Tech) },
			"edge-tech": func(p int32) int { return 2*int(db.Throughput[p].Tech) + staticIndex(db.Throughput[p].Edge) },
		}
		tputParts := map[string]int{"tech": nt + 2, "timezone": geo.NumTimezones + 1, "speed": 5 * nt, "edge-tech": 2*nt + 3}
		for _, op := range radio.Operators() {
			for _, dir := range radio.Directions() {
				for _, static := range []bool{false, true} {
					name := fmt.Sprintf("tput %v %v static=%v", op, dir, static)
					c := v.throughput(op, dir, static)
					var xs []float64
					var pos []int32
					for p := range db.Throughput {
						if s := &db.Throughput[p]; s.Op == op && s.Dir == dir && s.Static == static {
							xs = append(xs, s.Mbps)
							pos = append(pos, int32(p))
						}
					}
					if !slices.Equal(c.pos, pos) {
						t.Fatalf("odd=%v %s: rows %v, want %v", odd, name, c.pos, pos)
					}
					if got, want := c.summary(), summarizeOrZero(xs); !same(got, want) {
						t.Errorf("odd=%v %s: summary %+v, want %+v", odd, name, got, want)
					}
					// A table's cuts are ranked exactly when its values
					// are plain, and their parts then read the ranking.
					if (c.ranked != nil) == odd && len(c.pos) > 0 {
						t.Errorf("odd=%v %s: ranked = %v", odd, name, c.ranked != nil)
					}
					for by, key := range tputKeys {
						checkParts(name+" by "+by, c, tputParts[by], key, tput)
					}
				}
			}
			for _, static := range []bool{false, true} {
				name := fmt.Sprintf("rtt %v static=%v", op, static)
				c := v.rttOf(op, static)
				var xs []float64
				for _, s := range db.RTT {
					if s.Op == op && s.Static == static && !s.Lost {
						xs = append(xs, s.RTTMS)
					}
				}
				if got, want := c.summary(), summarizeOrZero(xs); !same(got, want) {
					t.Errorf("odd=%v %s: summary %+v, want %+v", odd, name, got, want)
				}
				for i, p := range c.pos {
					if math.Float64bits(rtt(p)) != math.Float64bits(c.vals[i]) {
						t.Fatalf("odd=%v %s: value %d is not row %d's", odd, name, i, p)
					}
				}
				checkParts(name+" by tech", c, nt+1, func(p int32) int { return int(db.RTT[p].Tech) }, rtt)
			}
		}
		// A cut of a whole column, as Figure 6 cuts its pair differences,
		// split into its four bins and an empty fifth.
		diffs := make([]float64, len(db.Throughput))
		for i := range diffs {
			diffs[i] = db.Throughput[i].Mbps - db.RTT[i].RTTMS
		}
		all := newCut(diffs, newRadixScratch(0))
		if (all.ranked != nil) == odd {
			t.Errorf("odd=%v diffs: ranked = %v", odd, all.ranked != nil)
		}
		checkParts("diffs by bin", &all, int(LTLT)+2, func(p int32) int { return int(binOfPair(db.Throughput[p].Tech, db.RTT[p].Tech)) },
			func(p int32) float64 { return diffs[p] })
	}
}

// TestDrivingKPIColumns requires Table 2's throughput column to be the
// driving cut's values, and each KPI column to hold the same rows' KPI
// in the same order.
func TestDrivingKPIColumns(t *testing.T) {
	db := syntheticDB(rand.New(rand.NewSource(5)), false)
	for i := range db.Throughput {
		s := &db.Throughput[i]
		s.RSRP, s.MCS, s.CC, s.BLER, s.Handovers = -float64(i), i%29, i%5, float64(i)/1e4, i%3
	}
	v := newView(db)
	for _, op := range radio.Operators() {
		for _, dir := range radio.Directions() {
			c := v.driving(op, dir)
			tput, cols := v.drivingKPIs(op, dir)
			if len(tput) != len(c.vals) || len(tput) > 0 && &tput[0] != &c.vals[0] {
				t.Errorf("%v %v: throughput column is not the driving cut's values", op, dir)
			}
			for _, name := range KPINames() {
				if got := len(cols[string(name)]); got != len(c.pos) || cap(cols[string(name)]) != got {
					t.Fatalf("%v %v %s: len %d cap %d, want both %d", op, dir, name, got, cap(cols[string(name)]), len(c.pos))
				}
			}
			for i, p := range c.pos {
				s := &db.Throughput[p]
				want := map[KPIName]float64{KPIRSRP: s.RSRP, KPIMCS: float64(s.MCS), KPICA: float64(s.CC),
					KPIBLER: s.BLER, KPISpeed: s.SpeedMPH, KPIHO: float64(s.Handovers)}
				for name, x := range want {
					if got := cols[string(name)][i]; got != x {
						t.Fatalf("%v %v %s[%d] = %v, want row %d's %v", op, dir, name, i, got, p, x)
					}
				}
			}
		}
	}
}

// TestRadixOrder pins radixOrder to a stable sort by value over plain
// values of every sign and magnitude, and over values that differ in
// one byte only, which one pass sorts, with one scratch that each sort
// leaves to the next: grown, then reused for shorter sorts.
func TestRadixOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	scratch := newRadixScratch(0)
	for k, n := range []int{0, 1, 7, 60, 299, 300, 13, 150, 2, 0, 300, 64} {
		vals := make([]float64, n)
		for i := range vals {
			switch r := rng.Intn(6); {
			case k%4 == 3:
				vals[i] = 2 + float64(rng.Intn(3))/2 // 2, 2.5 and 3 differ in one byte
			case r == 0:
				vals[i] = float64(rng.Intn(3)) - 1
			case r == 1:
				vals[i] = math.Inf(1 - 2*rng.Intn(2))
			case r == 2:
				vals[i] = math.SmallestNonzeroFloat64 * float64(rng.Intn(5)-2)
			default:
				vals[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
			}
		}
		want := make([]int32, n)
		for i := range want {
			want[i] = int32(i)
		}
		slices.SortStableFunc(want, func(a, b int32) int {
			switch {
			case vals[a] < vals[b]:
				return -1
			case vals[a] > vals[b]:
				return 1
			}
			return 0
		})
		if got := radixOrder(vals, scratch); !slices.Equal(got, want) {
			t.Fatalf("n=%d: radixOrder = %v, want %v", n, got, want)
		}
	}
}

// TestReportAllocatesLittle pins what a report allocates to the
// database it reads: at most 0.8 times the bytes of the database's
// tables, counted at their capacity. The view keeps row positions, each cut's
// values and the KPI columns, and a split summarizes its parts without
// building them; a view that copies rows, grows a column by append or
// builds every part of a split allocates more. The test must not run
// in parallel: TotalAlloc counts every goroutine's allocations.
func TestReportAllocatesLittle(t *testing.T) {
	cfg := quickConfig(1)
	cfg.Limit = 40 * unit.Kilometer
	db, err := NewCampaign(cfg).RunAndMerge()
	if err != nil {
		t.Fatal(err)
	}
	maps := FigureCoverageMaps(db, geo.DefaultRoute(), 100)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	Report(db, maps)
	runtime.ReadMemStats(&after)
	tables := capBytes(db.Tests) + capBytes(db.Throughput) + capBytes(db.RTT) +
		capBytes(db.Handovers) + capBytes(db.AppRuns) + capBytes(db.Passive)
	alloc := after.TotalAlloc - before.TotalAlloc
	if float64(alloc) > 0.8*float64(tables) {
		t.Errorf("Report allocated %d bytes for %d bytes of tables (%.2f×), want at most 0.8×", alloc, tables, float64(alloc)/float64(tables))
	}
}

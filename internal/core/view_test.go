package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/nuwins/cellwheels/internal/dataset"
	"github.com/nuwins/cellwheels/internal/geo"
	"github.com/nuwins/cellwheels/internal/radio"
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

// TestFiguresRepeatable requires every exported figure and table to
// hold the same values, bit for bit, on every call over one database.
// A figure that adds floats up in map iteration order fails here.
func TestFiguresRepeatable(t *testing.T) {
	db := quickDB(t)
	all := func() string {
		var b strings.Builder
		for _, v := range []any{
			TableDatasetStats(db), FigureCoverageMaps(db, geo.DefaultRoute(), 100),
			FigureCoverage(db), FigureStaticVsDriving(db), FigurePerTechnology(db),
			FigureTimezone(db), FigureOperatorDiversity(db), FigureSpeedScatter(db),
			TableKPICorrelation(db), FigureLongTimescale(db), FigureHighSpeed5GShare(db),
			TableOoklaComparison(db), FigureHandoverStats(db), FigureHandoverImpact(db),
			FigureARApp(db), FigureCAVApp(db), FigureVideo(db), FigureGaming(db),
			AnalyzeMultivariate(db),
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

// TestViewCutsMatchSummarize requires every cut of the view, and every
// part a split reads off the ranking of a table's plain values or sorts
// itself, to summarize as stats.Summarize does the same rows' values in
// table order.
func TestViewCutsMatchSummarize(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, odd := range []bool{false, true} {
		db := syntheticDB(rng, odd)
		v := newView(db)
		check := func(name string, c *cut, keep func(p int) bool, val func(p int) float64) {
			t.Helper()
			var xs []float64
			var pos []int32
			for p := 0; p < len(db.Throughput); p++ {
				if keep(p) {
					xs = append(xs, val(p))
					pos = append(pos, int32(p))
				}
			}
			if !slices.Equal(c.pos, pos) {
				t.Fatalf("odd=%v %s: rows %v, want %v", odd, name, c.pos, pos)
			}
			// %#v prints -0 and NaN as such, so equal strings are equal bits
			// up to NaN payloads.
			if got, want := c.summary(), summarizeOrZero(xs); fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", want) {
				t.Errorf("odd=%v %s: summary %+v, want %+v", odd, name, got, want)
			}
		}
		tput := func(p int) float64 { return db.Throughput[p].Mbps }
		rtt := func(p int) float64 { return db.RTT[p].RTTMS }
		for _, op := range radio.Operators() {
			for _, dir := range radio.Directions() {
				for _, static := range []bool{false, true} {
					c := v.throughput(op, dir, static)
					check(fmt.Sprintf("tput %v %v static=%v", op, dir, static), c, func(p int) bool {
						s := &db.Throughput[p]
						return s.Op == op && s.Dir == dir && s.Static == static
					}, tput)
					// A table's cuts are ranked exactly when its values
					// are plain, and their parts then read the ranking.
					if (c.ranked != nil) == odd && len(c.pos) > 0 {
						t.Errorf("odd=%v tput %v %v static=%v: ranked = %v", odd, op, dir, static, c.ranked != nil)
					}
				}
				byTech := v.drivingByTech(op, dir)
				for _, tech := range radio.Technologies() {
					check(fmt.Sprintf("tput %v %v %v", op, dir, tech), &byTech[tech], func(p int) bool {
						s := &db.Throughput[p]
						return s.Op == op && s.Dir == dir && !s.Static && s.Tech == tech
					}, tput)
				}
			}
			for _, static := range []bool{false, true} {
				c := v.rttOf(op, static)
				var xs []float64
				for _, s := range db.RTT {
					if s.Op == op && s.Static == static && !s.Lost {
						xs = append(xs, s.RTTMS)
					}
				}
				if got, want := c.summary(), summarizeOrZero(xs); fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", want) {
					t.Errorf("odd=%v rtt %v static=%v: summary %+v, want %+v", odd, op, static, got, want)
				}
				for i, p := range c.pos {
					if math.Float64bits(rtt(int(p))) != math.Float64bits(c.vals[i]) {
						t.Fatalf("odd=%v rtt %v: value %d is not row %d's", odd, op, i, p)
					}
				}
			}
		}
	}
}

// TestRadixOrder pins radixOrder to a stable sort by value over plain
// values of every sign and magnitude.
func TestRadixOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 0; n < 300; n += 7 {
		vals := make([]float64, n)
		for i := range vals {
			switch rng.Intn(6) {
			case 0:
				vals[i] = float64(rng.Intn(3)) - 1
			case 1:
				vals[i] = math.Inf(1 - 2*rng.Intn(2))
			case 2:
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
		if got := radixOrder(vals); !slices.Equal(got, want) {
			t.Fatalf("n=%d: radixOrder = %v, want %v", n, got, want)
		}
	}
}

package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/nuwins/cellwheels/internal/dataset"
	"github.com/nuwins/cellwheels/internal/geo"
	"github.com/nuwins/cellwheels/internal/unit"
)

// campaignSink keeps the compiler from discarding the benchmarked builds.
var campaignSink *Campaign

// BenchmarkNewCampaign measures building a 20 km campaign: its timeline
// and the three operators' deployments over the whole route, the fixed
// cost every short run (a fleet replicate, a daemon job) pays before its
// lanes start.
func BenchmarkNewCampaign(b *testing.B) {
	geo.DefaultRoute() // built once per process, not per campaign
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		campaignSink = NewCampaign(Config{Seed: 1, Limit: 20 * unit.Kilometer})
	}
}

// The figure benches below time the analysis behind one figure over the
// same 700 km dataset the root package's figure benches use, each from a
// fresh view as a report section builds it, and print the rendered
// figure once. The root package's bench_test.go times the figures core
// exports.
var (
	benchOnce sync.Once
	benchData *dataset.DB
)

func benchDB(b *testing.B) *dataset.DB {
	b.Helper()
	benchOnce.Do(func() {
		cfg := Config{
			Seed:           1,
			Limit:          700 * unit.Kilometer,
			VideoDuration:  60 * time.Second,
			GamingDuration: 40 * time.Second,
		}
		db, err := NewCampaign(cfg).RunAndMerge()
		if err != nil {
			panic(err)
		}
		benchData = db
	})
	return benchData
}

// printOnce emits a bench's rows exactly once across all iterations.
var printed sync.Map

func printOnce(name, rows string) {
	if _, loaded := printed.LoadOrStore(name, true); !loaded {
		fmt.Printf("\n%s\n", rows)
	}
}

func BenchmarkFig4PerTechnology(b *testing.B) {
	db := benchDB(b)
	b.ResetTimer()
	var out PerTechnology
	for i := 0; i < b.N; i++ {
		out = perTechnology(newView(db))
	}
	printOnce("fig4", out.Render())
}

func BenchmarkFig5Timezone(b *testing.B) {
	db := benchDB(b)
	b.ResetTimer()
	var out TimezonePerf
	for i := 0; i < b.N; i++ {
		out = timezonePerf(newView(db))
	}
	printOnce("fig5", out.Render())
}

func BenchmarkFig6OperatorDiversity(b *testing.B) {
	db := benchDB(b)
	b.ResetTimer()
	var out OperatorDiversity
	for i := 0; i < b.N; i++ {
		out = operatorDiversity(newView(db))
	}
	printOnce("fig6", out.Render())
}

func BenchmarkFig7SpeedScatter(b *testing.B) {
	db := benchDB(b)
	b.ResetTimer()
	var out SpeedScatter
	for i := 0; i < b.N; i++ {
		out = speedScatter(newView(db))
	}
	printOnce("fig7+8", out.Render())
}

func BenchmarkFig8RTTSpeed(b *testing.B) {
	// Fig 8 shares its computation with Fig 7; this bench isolates the
	// RTT panel's cost by rendering only it.
	db := benchDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = speedScatter(newView(db)).RTT
	}
}

func BenchmarkFig9LongTimescale(b *testing.B) {
	db := benchDB(b)
	b.ResetTimer()
	var out LongTimescale
	for i := 0; i < b.N; i++ {
		out = newView(db).longTimescale()
	}
	printOnce("fig9", out.Render())
}

func BenchmarkFig10HighSpeed5GShare(b *testing.B) {
	db := benchDB(b)
	b.ResetTimer()
	var out HighSpeedShare
	for i := 0; i < b.N; i++ {
		out = highSpeed5GShare(newView(db))
	}
	printOnce("fig10", out.Render())
}

func BenchmarkFig12HandoverImpact(b *testing.B) {
	db := benchDB(b)
	b.ResetTimer()
	var out HandoverImpact
	for i := 0; i < b.N; i++ {
		out = handoverImpact(newView(db))
	}
	printOnce("fig12", out.Render())
}

func BenchmarkMultivariate(b *testing.B) {
	// The paper's §5.5 future work: joint OLS of throughput on all KPIs.
	db := benchDB(b)
	b.ResetTimer()
	var out Multivariate
	for i := 0; i < b.N; i++ {
		out = multivariate(newView(db))
	}
	printOnce("multivariate", out.Render())
}

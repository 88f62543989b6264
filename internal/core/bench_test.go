package core

import (
	"testing"

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

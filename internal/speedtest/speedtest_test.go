package speedtest

import (
	"testing"
	"time"

	"github.com/nuwins/cellwheels/internal/deploy"
	"github.com/nuwins/cellwheels/internal/geo"
	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/simrand"
)

func crowdFor(t *testing.T, op radio.Operator, samples int, seed int64) []Result {
	t.Helper()
	route := geo.DefaultRoute()
	rng := simrand.New(seed)
	m := deploy.NewMap(op, route, rng)
	cfg := DefaultConfig()
	cfg.Samples = samples
	cfg.TestDuration = 6 * time.Second
	return Crowd(route, m, cfg, rng)
}

func TestCrowdProducesResults(t *testing.T) {
	results := crowdFor(t, radio.TMobile, 30, 1)
	if len(results) != 30 {
		t.Fatalf("results = %d", len(results))
	}
	for i, r := range results {
		if r.DLMbps < 0 || r.ULMbps < 0 {
			t.Fatalf("result %d: negative throughput %+v", i, r)
		}
		if r.RTTMS <= 0 || r.RTTMS > 3100 {
			t.Errorf("result %d: RTT %v", i, r.RTTMS)
		}
	}
}

func TestCrowdStaticBeatsDrivingScale(t *testing.T) {
	// Static crowd medians land well above the paper's driving medians —
	// the Table 3 signature. Driving DL medians are ~20-35 Mbps; the
	// static crowd should be far higher.
	results := crowdFor(t, radio.TMobile, 60, 2)
	sum := Summarize(results)
	if sum.DL.Median < 40 {
		t.Errorf("crowd DL median = %v Mbps, want well above driving levels", sum.DL.Median)
	}
	if sum.DL.Median <= sum.UL.Median {
		t.Error("DL median not above UL median")
	}
	// Nearby servers: RTT below the driving medians (60-76 ms).
	if sum.RTT.Median >= 65 {
		t.Errorf("crowd RTT median = %v ms, want below driving levels", sum.RTT.Median)
	}
}

func TestCrowdUrbanBias(t *testing.T) {
	results := crowdFor(t, radio.Verizon, 80, 3)
	counts := map[geo.Region]int{}
	for _, r := range results {
		counts[r.Region]++
	}
	if counts[geo.Urban]+counts[geo.Suburban] <= counts[geo.Highway] {
		t.Errorf("crowd not urban-biased: %v", counts)
	}
}

func TestCrowdDeterministic(t *testing.T) {
	a := crowdFor(t, radio.ATT, 10, 42)
	b := crowdFor(t, radio.ATT, 10, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("result %d diverged", i)
		}
	}
}

func TestSummarizeEmpty(t *testing.T) {
	sum := Summarize(nil)
	if sum.DL.N != 0 || sum.RTT.N != 0 {
		t.Errorf("summary of nothing = %+v", sum)
	}
}

func TestConfigDefaults(t *testing.T) {
	var cfg Config
	cfg.applyDefaults()
	if cfg.Samples != 120 || cfg.Flows != 4 {
		t.Errorf("defaults = %+v", cfg)
	}
}

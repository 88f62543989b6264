// Package speedtest simulates the crowdsourced static measurements the
// paper compares against in Table 3 (Ookla SpeedTest, Q3 2022). The
// methodology differs from the drive tests in exactly the ways §5.6
// lists: users are static (mostly in towns and cities), the app picks a
// server close to the user, and it opens multiple parallel TCP
// connections to measure peak bandwidth rather than single-flow
// application throughput.
//
// Running this alongside a campaign turns Table 3's published-constants
// column into a measured one, with both sides produced by the same
// radio and transport substrates.
package speedtest

import (
	"strconv"
	"time"

	"github.com/nuwins/cellwheels/internal/deploy"
	"github.com/nuwins/cellwheels/internal/geo"
	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/ran"
	"github.com/nuwins/cellwheels/internal/simrand"
	"github.com/nuwins/cellwheels/internal/stats"
	"github.com/nuwins/cellwheels/internal/transport"
	"github.com/nuwins/cellwheels/internal/unit"
)

// Config parameterizes the crowd simulation.
type Config struct {
	// Samples is the number of crowd measurements per operator.
	Samples int
	// Flows is the number of parallel TCP connections per test
	// (SpeedTest uses several; the drive tests used one).
	Flows int
	// TestDuration is the length of each direction's transfer.
	TestDuration time.Duration
	// ServerRTT is the base RTT to the nearby test server SpeedTest
	// selects; small because the server is close.
	ServerRTT time.Duration
}

// DefaultConfig mirrors the characteristics §5.6 attributes to the app.
func DefaultConfig() Config {
	return Config{
		Samples:      120,
		Flows:        4,
		TestDuration: 12 * time.Second,
		ServerRTT:    9 * time.Millisecond,
	}
}

func (c *Config) applyDefaults() {
	d := DefaultConfig()
	if c.Samples <= 0 {
		c.Samples = d.Samples
	}
	if c.Flows <= 0 {
		c.Flows = d.Flows
	}
	if c.TestDuration <= 0 {
		c.TestDuration = d.TestDuration
	}
	if c.ServerRTT <= 0 {
		c.ServerRTT = d.ServerRTT
	}
}

// Result is one crowd measurement.
type Result struct {
	Op     radio.Operator
	DLMbps float64
	ULMbps float64
	RTTMS  float64
	Tech   radio.Technology
	Region geo.Region
}

// Summary aggregates one operator's crowd results.
type Summary struct {
	DL  stats.Summary
	UL  stats.Summary
	RTT stats.Summary
}

// tick matches the campaign's simulation step.
const tick = 50 * time.Millisecond

// Crowd runs the crowd simulation over an operator's deployment.
// Positions are drawn where crowdsourced users actually live: mostly
// cities and towns, rarely on the interstate.
func Crowd(route *geo.Route, m *deploy.Map, cfg Config, rng *simrand.Source) []Result {
	cfg.applyDefaults()
	src := rng.Fork("speedtest/" + m.Op.Short())
	results := make([]Result, 0, cfg.Samples)
	for i := 0; i < cfg.Samples; i++ {
		pos := drawPosition(route, src)
		results = append(results, measure(route, m, cfg, pos, crowdAnchor(), src.Fork(strconv.Itoa(i)), nil))
	}
	return results
}

// crowdAnchor is the fixed instant the sampled (post-hoc) crowd measures
// at: early evening during the drive window, when crowdsourced tests
// cluster.
func crowdAnchor() time.Time {
	return time.Date(2022, 8, 12, 18, 0, 0, 0, time.UTC)
}

// MeasureAt runs one crowd-style measurement — a DL transfer, a UL
// transfer, and a ping burst over parallel flows — at a fixed position
// and instant. A non-nil load backend replaces the per-UE load stand-in,
// which is how registry crowd UEs measure against the demand their own
// population generates.
func MeasureAt(route *geo.Route, m *deploy.Map, cfg Config, odo unit.Meters, now time.Time, src *simrand.Source, load ran.LoadBackend) Result {
	cfg.applyDefaults()
	return measure(route, m, cfg, odo, now, src, load)
}

// drawPosition samples an odometer position with a strong urban bias.
func drawPosition(route *geo.Route, src *simrand.Source) unit.Meters {
	for attempt := 0; attempt < 64; attempt++ {
		odo := unit.Meters(src.Uniform(0, float64(route.Total())))
		region := route.At(odo).Region
		accept := 0.08 // highway users are rare
		switch region {
		case geo.Urban:
			accept = 1.0
		case geo.Suburban:
			accept = 0.5
		}
		if src.Bool(accept) {
			return odo
		}
	}
	return unit.Meters(src.Uniform(0, float64(route.Total())))
}

// measure runs one user's DL transfer, UL transfer, and ping burst.
func measure(route *geo.Route, m *deploy.Map, cfg Config, odo unit.Meters, now time.Time, src *simrand.Source, load ran.LoadBackend) Result {
	wp := route.At(odo)
	ue := ran.NewUE(ran.UEConfig{Op: m.Op, Map: m, Load: load}, src)
	res := Result{Op: m.Op, Region: wp.Region}

	run := func(dir radio.Direction, traffic deploy.Traffic) float64 {
		ue.SetTraffic(traffic, now, wp)
		bond := transport.NewBond(cfg.Flows, src.Fork("flows/"+dir.String()), transport.Options{})
		caps := make([]unit.BitRate, cfg.Flows)
		rtts := make([]time.Duration, cfg.Flows)
		loss := make([]float64, cfg.Flows)
		var total unit.Bytes
		for elapsed := time.Duration(0); elapsed < cfg.TestDuration; elapsed += tick {
			st := ue.Step(now, wp, 0, tick)
			now = now.Add(tick)
			// Parallel connections share the same bottleneck evenly.
			share := unit.BitRate(float64(st.Capacity(dir)) / float64(cfg.Flows))
			base := cfg.ServerRTT + unit.DurationFromMS(radio.BaseRadioRTT(st.Tech))
			for f := 0; f < cfg.Flows; f++ {
				caps[f] = share
				rtts[f] = base
				loss[f] = st.BLER
			}
			total += bond.Step(tick, caps, rtts, loss).Delivered
		}
		res.Tech = ue.Tech()
		return total.RateOver(cfg.TestDuration).Mbps()
	}

	res.DLMbps = run(radio.Downlink, deploy.HeavyDL)
	res.ULMbps = run(radio.Uplink, deploy.HeavyUL)

	// Ping burst against the nearby server.
	pinger := transport.NewPinger(src.Fork("ping"))
	ue.SetTraffic(deploy.Idle, now, wp)
	var rtts []float64
	for elapsed := time.Duration(0); elapsed < 3*time.Second; elapsed += tick {
		st := ue.Step(now, wp, 0, tick)
		now = now.Add(tick)
		base := cfg.ServerRTT + unit.DurationFromMS(radio.BaseRadioRTT(st.Tech))
		for _, s := range pinger.Step(tick, st.CapacityDL, base, st.Load, st.InHandover) {
			if !s.Lost {
				rtts = append(rtts, unit.Milliseconds(s.RTT))
			}
		}
	}
	if len(rtts) > 0 {
		res.RTTMS = stats.NewCDF(rtts).Median()
	}
	return res
}

// Summarize aggregates results per metric.
func Summarize(results []Result) Summary {
	var dl, ul, rtt []float64
	for _, r := range results {
		dl = append(dl, r.DLMbps)
		ul = append(ul, r.ULMbps)
		if r.RTTMS > 0 {
			rtt = append(rtt, r.RTTMS)
		}
	}
	sum := Summary{}
	if s, err := stats.Summarize(dl); err == nil {
		sum.DL = s
	}
	if s, err := stats.Summarize(ul); err == nil {
		sum.UL = s
	}
	if s, err := stats.Summarize(rtt); err == nil {
		sum.RTT = s
	}
	return sum
}

// Package core is the paper's primary contribution in executable form:
// the drive-test measurement campaign (§3's methodology — three carriers
// measured simultaneously through a round-robin of throughput, RTT, and
// application tests, with XCAL-style cross-layer logging, passive
// handover-logger phones, per-city static baselines, and edge/cloud server
// selection) and the full analysis suite that regenerates every table and
// figure of the evaluation.
//
// The engine is split into two layers, mirroring the physical testbed:
// a shared geo.Timeline — the deterministic drive schedule, including the
// fixed-budget static hold windows — and one lane per operator, each
// owning a phone, an XCAL recorder, a passive handover logger, and its
// deployment map. The drive is stepped once per campaign and every lane
// replays it block by block, concurrently; outputs are merged in fixed
// operator order, which makes the result byte-identical for every worker
// count.
package core

import (
	"fmt"
	"runtime"
	"time"

	"github.com/nuwins/cellwheels/internal/apps/offload"
	"github.com/nuwins/cellwheels/internal/cloud"
	"github.com/nuwins/cellwheels/internal/dataset"
	"github.com/nuwins/cellwheels/internal/deploy"
	"github.com/nuwins/cellwheels/internal/geo"
	"github.com/nuwins/cellwheels/internal/logsync"
	"github.com/nuwins/cellwheels/internal/obs"
	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/ran"
	"github.com/nuwins/cellwheels/internal/simrand"
	"github.com/nuwins/cellwheels/internal/speedtest"
	"github.com/nuwins/cellwheels/internal/transport"
	"github.com/nuwins/cellwheels/internal/ue"
	"github.com/nuwins/cellwheels/internal/unit"
	"github.com/nuwins/cellwheels/internal/xcal"
)

// Tick is the simulation step.
const Tick = 50 * time.Millisecond

// The paper's fixed test lengths (§5) and the idle gap before each test.
const (
	throughputDuration = 30 * time.Second
	rttDuration        = 20 * time.Second
	testGap            = 5 * time.Second
)

// staticCityRadius is how close to a city center the vehicle must be to
// trigger that city's static baseline battery.
const staticCityRadius = 8 * unit.Kilometer

// staticSearchWindow is how far around the stop a static battery counts
// deployed technologies — the testers sought out the best site in the
// city, not the best site at the parking spot (§5.1).
const staticSearchWindow = 12 * unit.Kilometer

// Config parameterizes a campaign. The zero value (plus a seed) runs the
// paper's full methodology over the full route.
type Config struct {
	Seed  int64
	Drive geo.DriveConfig

	// Limit truncates the trip after this driven distance. Zero means
	// the full route. Tests and benches use small limits.
	Limit unit.Meters

	// Workers caps how many operator lanes step the drive concurrently.
	// Zero means GOMAXPROCS; values above the operator count are clamped.
	// Every value produces byte-identical output: lanes are individually
	// deterministic and their logs are merged in fixed operator order.
	Workers int

	// Durations of the app tests; zero values take the paper's.
	VideoDuration  time.Duration // 3 min (§D.1)
	GamingDuration time.Duration // 90 s

	// Apps disables the four application workloads when false is
	// requested via SkipApps (kept inverted so the zero value runs all).
	SkipApps bool
	// SkipStatic disables the per-city static baselines.
	SkipStatic bool
	// SkipPassive disables the handover-logger phones.
	SkipPassive bool
	// DisableEdge removes the Wavelength servers (ablation).
	DisableEdge bool
	// DisablePolicy makes the elevation policy always pick the best
	// available technology regardless of traffic (ablation for the
	// passive-vs-active coverage finding).
	DisablePolicy bool

	// Transport tunes the TCP path model (bufferbloat ablation).
	Transport transport.Options

	// CrowdSize attaches this many background UEs per operator — the
	// metro-scale crowd (internal/ue). Zero runs the classic six-handset
	// campaign with no registry at all.
	CrowdSize int
	// CrowdSamples is how many of the crowd's UEs run speedtest
	// measurements during the campaign (Table 3's measured column). Zero
	// defaults to 120 when a crowd is enabled.
	CrowdSamples int
	// LoadModel selects the sector-load backend the handsets see:
	// LoadModelStandin (or empty) keeps the per-UE OU stand-in,
	// byte-identical to the historical campaign; LoadModelDemand couples
	// the handsets to the crowd registry's per-cell aggregate demand.
	// The crowd's own measurement flows always measure against the
	// registry, whatever the handsets use.
	LoadModel string

	// Operators to measure; nil means all three.
	Operators []radio.Operator

	// Archive, when set, receives every raw XCAL capture as its test
	// ends, before the lane normalises it and drops the raw rows; the
	// file is valid only during the call. Lanes call it concurrently,
	// each with its own captures in order. A lane stops calling it after
	// its first error, which Run reports in Raw.ArchiveErr.
	Archive func(*xcal.File) error

	// Obs is the observability side channel: lanes count ticks into it,
	// phases time themselves against it, and logsync records merge stats.
	// It is strictly write-only from the engine's point of view — nothing
	// read from it ever feeds a simulation decision — so a nil value (the
	// default) and any non-nil value produce byte-identical datasets.
	Obs *obs.Recorder

	// SharedTimeline, when non-nil, is the drive schedule PrecomputeTimeline
	// built for an identical config; NewCampaign uses it instead of
	// building its own. The schedule is a cheap value that steps nothing,
	// so sharing it saves no drive pass: it only lets a caller hold the
	// schedule it replays. Timeline replay is stateless — every cursor
	// forks the same named stream — so the result is byte-identical to a
	// campaign that builds its own. Callers are responsible for matching
	// configs.
	SharedTimeline *geo.Timeline
}

func (c *Config) applyDefaults() {
	if c.VideoDuration <= 0 {
		c.VideoDuration = 3 * time.Minute
	}
	if c.GamingDuration <= 0 {
		c.GamingDuration = 90 * time.Second
	}
	if len(c.Operators) == 0 {
		c.Operators = radio.Operators()
	}
	if c.CrowdSize > 0 && c.CrowdSamples == 0 {
		c.CrowdSamples = 120
	}
}

// Load model backends for Config.LoadModel.
const (
	LoadModelStandin = "standin"
	LoadModelDemand  = "demand"
)

// crowdEnabled reports whether the campaign builds per-lane registries:
// either a crowd population was requested or the demand backend is on
// (an empty registry still answers CellLoad with the base load).
func (c Config) crowdEnabled() bool {
	return c.CrowdSize > 0 || c.LoadModel == LoadModelDemand
}

// plannedDistance is how far the trip drives: the route, cut at Limit.
func (c Config) plannedDistance(route *geo.Route) unit.Meters {
	if c.Limit > 0 && c.Limit < route.Total() {
		return c.Limit
	}
	return route.Total()
}

// testSpec is one rotation slot.
type testSpec struct {
	kind       dataset.TestKind
	compressed bool // AR/CAV compression variant
}

// rotation builds the round-robin schedule of §3.
func (c Config) rotation() []testSpec {
	specs := []testSpec{
		{kind: dataset.ThroughputDL},
		{kind: dataset.ThroughputUL},
		{kind: dataset.RTTTest},
	}
	if !c.SkipApps {
		specs = append(specs,
			testSpec{kind: dataset.AppAR, compressed: true},
			testSpec{kind: dataset.AppAR, compressed: false},
			testSpec{kind: dataset.AppCAV, compressed: true},
			testSpec{kind: dataset.AppCAV, compressed: false},
			testSpec{kind: dataset.AppVideo},
			testSpec{kind: dataset.AppGaming},
		)
	}
	return specs
}

func (c Config) testDuration(k dataset.TestKind) time.Duration {
	switch k {
	case dataset.ThroughputDL, dataset.ThroughputUL:
		return throughputDuration
	case dataset.RTTTest:
		return rttDuration
	case dataset.AppVideo:
		return c.VideoDuration
	case dataset.AppGaming:
		return c.GamingDuration
	default:
		return offload.ARConfig().RunDuration
	}
}

// staticHoldBudget is the fixed wall-clock length of one per-city static
// battery: exactly one full rotation — a gap plus a test per slot — in
// whole ticks. Deriving the budget from the configured durations alone
// keeps the shared timeline independent of any phone's runtime progress,
// which is what lets lanes replay it without waiting for each other.
func (c Config) staticHoldBudget() time.Duration {
	var ticks int64
	for _, s := range c.rotation() {
		ticks += ceilTicks(testGap) + ceilTicks(c.testDuration(s.kind))
	}
	return time.Duration(ticks) * Tick
}

// ceilTicks converts a duration to whole simulation ticks, rounding up.
func ceilTicks(d time.Duration) int64 {
	return int64((d + Tick - 1) / Tick)
}

// Raw is the campaign's unmerged output: what the instruments produced,
// each XCAL capture and passive row already normalised by its lane,
// before logsync matches the captures to the app logs and builds the
// database.
type Raw struct {
	// Files is always nil: a lane normalises each capture into Captures
	// when its test ends and drops the raw rows, so the raw archive is
	// never in memory (Config.Archive streams it out instead). The
	// field stays so that callers that range over it still compile.
	Files    []xcal.File
	Captures []logsync.Capture
	Apps     []logsync.AppLog
	// Passive holds each passive logger's coverage samples, keyed by
	// operator short code.
	Passive map[string]logsync.Passive
	Meta    dataset.Meta
	// PassiveHandovers counts the handover-logger phones' events, which
	// is what Table 1 reports.
	PassiveHandovers map[string]int
	// ArchiveErr is the first error Config.Archive returned, in
	// operator order.
	ArchiveErr error
}

// Campaign is a configured, runnable measurement campaign.
type Campaign struct {
	cfg      Config
	route    *geo.Route
	maps     map[radio.Operator]*deploy.Map
	fleet    []cloud.Server
	lanes    []*lane
	timeline *geo.Timeline
}

// PrecomputeTimeline builds the drive schedule NewCampaign would build
// for cfg, without building anything else. It steps no drive: the
// timeline is a cheap value, a pure function of (route, drive config,
// seed, tick, limit, hold rule) whose cursors fork the "drive" stream
// positionally off a fresh root, so one built here and injected via
// Config.SharedTimeline replays byte-identically to one built inside
// NewCampaign. The campaign's one drive pass happens in Run.
func PrecomputeTimeline(cfg Config) *geo.Timeline {
	cfg.applyDefaults()
	var hold geo.HoldRule
	if !cfg.SkipStatic {
		hold = geo.HoldRule{MaxCityDistance: staticCityRadius, Budget: cfg.staticHoldBudget()}
	}
	return geo.NewTimeline(geo.DefaultRoute(), cfg.Drive, simrand.New(cfg.Seed), geo.TimelineConfig{
		Tick:  Tick,
		Limit: cfg.Limit,
		Hold:  hold,
	})
}

// NewCampaign builds the testbed for a config.
func NewCampaign(cfg Config) *Campaign {
	cfg.applyDefaults()
	route := geo.DefaultRoute()
	rng := simrand.New(cfg.Seed)

	fleet := cloud.Fleet()
	if cfg.DisableEdge {
		var clouds []cloud.Server
		for _, s := range fleet {
			if s.Kind == cloud.Cloud {
				clouds = append(clouds, s)
			}
		}
		fleet = clouds
	}

	timeline := cfg.SharedTimeline
	if timeline == nil {
		timeline = PrecomputeTimeline(cfg)
	}

	c := &Campaign{
		cfg:      cfg,
		route:    route,
		maps:     map[radio.Operator]*deploy.Map{},
		fleet:    fleet,
		timeline: timeline,
	}
	// A crowd's event wheel must know the trip's length before the lanes
	// run, so a crowd campaign counts the timeline's ticks up front: the
	// one drive pass it makes besides Run's.
	var horizon int64
	if cfg.crowdEnabled() {
		horizon = int64(timeline.Ticks())
	}
	for _, op := range cfg.Operators {
		m := deploy.NewMap(op, route, rng)
		c.maps[op] = m

		// The crowd registry and the demand-driven load backend. Each
		// lane owns its registry, so worker-count byte-identity needs no
		// cross-lane coordination; its seed is derived positionally from
		// (campaign seed, operator), RunSeed-style.
		var reg *ue.Registry
		var backend ran.LoadBackend
		if cfg.crowdEnabled() {
			reg = ue.NewRegistry(ue.Config{
				Op:           op,
				Map:          m,
				Route:        route,
				Size:         cfg.CrowdSize,
				Span:         cfg.plannedDistance(route),
				Seed:         crowdSeed(cfg.Seed, op),
				Tick:         Tick,
				HorizonTicks: horizon,
				MeasureSlots: cfg.CrowdSamples,
				MeasureTicks: crowdMeasureTicks(crowdSpeedtestConfig()),
				MeasureUnits: crowdMeasureUnits,
				Obs:          cfg.Obs,
			})
			if cfg.LoadModel == LoadModelDemand {
				backend = reg
			}
		}

		p := &phone{
			op:      op,
			ue:      ran.NewUE(ran.UEConfig{Op: op, Map: m, ForceBest: cfg.DisablePolicy, Load: backend}, rng.Fork("active")),
			rec:     xcal.NewRecorder(op),
			rng:     rng.Fork("phone/" + op.Short()),
			fleet:   fleet,
			specs:   cfg.rotation(),
			norm:    logsync.NewNormalizer(route),
			archive: cfg.Archive,
		}
		p.gapLeft = testGap
		var logger *xcal.HandoverLogger
		if !cfg.SkipPassive {
			logger = xcal.NewHandoverLogger(ran.UEConfig{Op: op, Map: m, ForceBest: cfg.DisablePolicy, Load: backend}, rng)
		}
		l := &lane{
			cfg:    &c.cfg,
			op:     op,
			phone:  p,
			logger: logger,
			m:      m,
			reg:    reg,
			// Nil-safe when observability is off: a nil Recorder hands out
			// nil counters/gauges whose methods are no-ops.
			obsTicks: cfg.Obs.Counter("lane/" + op.Short() + "/ticks"),
			obsOdoKm: cfg.Obs.Gauge("lane/" + op.Short() + "/odometer_km"),
		}
		if reg != nil {
			// Measuring crowd UEs run their flows inline at event time,
			// against the registry's own demand aggregates — Table 3's
			// measured column from actual concurrent flows. Results
			// accumulate per lane in deterministic event order.
			measSrc := rng.Fork("crowd-measure/" + op.Short())
			stCfg := crowdSpeedtestConfig()
			reg.OnMeasure = func(slot int, odo unit.Meters, now time.Time) {
				res := speedtest.MeasureAt(route, m, stCfg, odo, now, measSrc.Fork(fmt.Sprintf("slot=%d", slot)), reg)
				l.crowdResults = append(l.crowdResults, res)
			}
		}
		c.lanes = append(c.lanes, l)
	}
	return c
}

// crowdSeed derives one lane's registry seed positionally from the
// campaign seed — the same named-fork derivation fleet.RunSeed uses for
// replicate seeds, so registry identity is a pure function of
// (seed, operator), independent of lane construction or run order.
func crowdSeed(master int64, op radio.Operator) int64 {
	return simrand.New(master).Fork("crowd").Fork("op=" + op.Short()).Int63()
}

// crowdSpeedtestConfig is the measuring crowd's flow configuration —
// the same shape MeasureSpeedtestCrowd's post-hoc sampling uses.
func crowdSpeedtestConfig() speedtest.Config {
	cfg := speedtest.DefaultConfig()
	cfg.TestDuration = 8 * time.Second
	return cfg
}

// crowdMeasureTicks is how long one crowd measurement occupies its cell:
// the DL and UL transfers plus the 3 s ping burst, in whole ticks.
func crowdMeasureTicks(cfg speedtest.Config) int64 {
	return 2*ceilTicks(cfg.TestDuration) + ceilTicks(3*time.Second)
}

// crowdMeasureUnits is the demand one running measurement adds to its
// serving cell — a backlogged multi-flow test, heavier than a typical
// session (4..28 units).
const crowdMeasureUnits = 30

// Run executes the campaign and returns the raw logs. The drive is
// stepped once and every lane replays it, with at most Config.Workers
// lanes stepping at a time (see runLanes); the raw logs are collected in
// fixed operator order, so the output does not depend on scheduling.
func (c *Campaign) Run() Raw {
	workers := c.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(c.lanes) {
		workers = len(c.lanes)
	}
	if workers < 1 {
		workers = 1
	}

	rec := c.cfg.Obs
	defer rec.StartPhase("run")()
	lanes := make([]string, len(c.lanes))
	for i, l := range c.lanes {
		lanes[i] = l.op.Short()
	}
	stopProgress := rec.StartProgress(obs.ProgressInfo{
		TotalKm: c.cfg.plannedDistance(c.route).Km(),
		Lanes:   lanes,
		Crowd:   c.cfg.crowdEnabled(),
	})
	defer stopProgress()

	ticks, final := runLanes(c.timeline, c.lanes, workers, rec)
	rec.Counter("ticks/per_lane").Add(int64(ticks))
	rec.Gauge("route/total_km").Set(final.Odometer.Km())

	return c.collect(final)
}

// collect gathers the raw outputs and meta accounting, iterating lanes in
// their fixed construction (operator) order. final is the drive's last
// state, which sets the route length and day count.
//
// The captures are handed over, not shared: each lane's normalised
// captures, app logs and passive samples move into Raw and the lane
// forgets them, so they die with the Raw once it is merged, while the
// campaign lives on for its maps and crowd results.
func (c *Campaign) collect(final geo.DriveState) Raw {
	raw := Raw{
		Passive:          map[string]logsync.Passive{},
		PassiveHandovers: map[string]int{},
		Meta: dataset.Meta{
			Seed:          c.cfg.Seed,
			RouteKm:       final.Odometer.Km(),
			Days:          final.Day + 1,
			Start:         c.cfg.Drive.StartUTC,
			RuntimeByOp:   map[string]time.Duration{},
			UniqueCells:   map[string]int{},
			HandoverTotal: map[string]int{},
		},
	}
	rec := c.cfg.Obs
	for _, l := range c.lanes {
		p := l.phone
		raw.Captures = append(raw.Captures, p.captures...)
		raw.Apps = append(raw.Apps, p.apps...)
		if raw.ArchiveErr == nil {
			raw.ArchiveErr = p.archiveErr
		}
		raw.Meta.BytesRx += p.bytesRx
		raw.Meta.BytesTx += p.bytesTx
		raw.Meta.RuntimeByOp[p.op.String()] = p.testTime
		raw.Meta.UniqueCells[p.op.String()] = p.ue.UniqueCells()
		rec.Counter("lane/" + l.op.Short() + "/files").Add(int64(len(p.captures)))
		p.captures, p.apps = nil, nil
		rec.Counter("lane/" + l.op.Short() + "/handovers").Add(int64(p.ue.HandoverCount()))
		rec.Counter("bytes/rx").Add(int64(p.bytesRx))
		rec.Counter("bytes/tx").Add(int64(p.bytesTx))
	}
	for _, l := range c.lanes {
		if l.logger == nil {
			continue
		}
		raw.Passive[l.op.Short()] = l.passive
		l.passive = logsync.Passive{}
		n := l.logger.UE.HandoverCount()
		raw.PassiveHandovers[l.op.String()] = n
		raw.Meta.HandoverTotal[l.op.String()] = n
		rec.Counter("lane/" + l.op.Short() + "/passive_handovers").Add(int64(n))
	}
	return raw
}

// Merge reconstructs the consolidated database from raw logs. It only
// reads raw, so one Raw can be merged any number of times.
func (c *Campaign) Merge(raw Raw) (*dataset.DB, logsync.Report, error) {
	return logsync.Merge(logsync.Input{
		Captures: raw.Captures,
		Apps:     raw.Apps,
		Passive:  raw.Passive,
		Meta:     raw.Meta,
		Obs:      c.cfg.Obs,
	})
}

// RunAndMerge is the common path: execute and consolidate.
func (c *Campaign) RunAndMerge() (*dataset.DB, error) { return c.MergeMatched(c.Run()) }

// MergeMatched is Merge that fails when any XCAL file matched no app
// log, naming the first three: a dataset missing whole captures is not a
// consolidation of the campaign.
func (c *Campaign) MergeMatched(raw Raw) (*dataset.DB, error) {
	db, rep, err := c.Merge(raw)
	if err != nil {
		return nil, err
	}
	if len(rep.UnmatchedFiles) > 0 {
		return nil, fmt.Errorf("core: %d XCAL files unmatched after sync: %v", len(rep.UnmatchedFiles), rep.UnmatchedFiles[:min(3, len(rep.UnmatchedFiles))])
	}
	return db, nil
}

// Maps exposes the generated deployments (for examples and coverage
// analysis that needs ground truth).
func (c *Campaign) Maps() map[radio.Operator]*deploy.Map { return c.maps }

// Route exposes the campaign route.
func (c *Campaign) Route() *geo.Route { return c.route }

// Package cellwheels reproduces the measurement study "Performance of
// Cellular Networks on the Wheels" (ACM IMC 2023) as a deterministic
// simulation: a cross-continental US drive (LA → Boston, 5,711 km) during
// which three phones — one per major US carrier — run a round-robin of
// bulk-TCP throughput tests, ICMP RTT tests, and four latency-critical
// "5G killer" applications, while XCAL-style instruments log PHY KPIs and
// control-plane signaling, and passive handover-logger phones record
// coverage.
//
// The package is a facade over the internal substrates (geography, radio,
// deployment, RAN, transport, logging, log synchronization, apps,
// analysis). A Study is a pure function of its Config: the same seed
// always reproduces the same dataset, tables, and figures.
//
// Quick use:
//
//	study, err := cellwheels.Run(cellwheels.Config{Seed: 42, LimitKm: 150})
//	if err != nil { ... }
//	fmt.Println(study.Report())
package cellwheels

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"github.com/nuwins/cellwheels/internal/atomicio"
	"github.com/nuwins/cellwheels/internal/core"
	"github.com/nuwins/cellwheels/internal/dataset"
	"github.com/nuwins/cellwheels/internal/geo"
	"github.com/nuwins/cellwheels/internal/obs"
	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/stats"
	"github.com/nuwins/cellwheels/internal/ue"
	"github.com/nuwins/cellwheels/internal/unit"
)

// Config parameterizes a study. The zero value runs the paper's full
// 8-day methodology over the whole route. The JSON tags are the field
// names fleet scenarios use, both in a scenario's "base" section and as
// sweep axis fields (see RunFleet).
type Config struct {
	// Seed makes the study reproducible; equal configs with equal seeds
	// produce identical datasets.
	Seed int64 `json:"seed"`
	// LimitKm truncates the drive after this many kilometers; 0 means
	// the full 5,711 km route, and a negative value is an error. Small
	// values make quick demos.
	LimitKm float64 `json:"limit_km"`
	// SkipApps drops the four application workloads from the rotation.
	SkipApps bool `json:"skip_apps"`
	// SkipStatic drops the per-city static baselines.
	SkipStatic bool `json:"skip_static"`
	// SkipPassive drops the passive handover-logger phones.
	SkipPassive bool `json:"skip_passive"`
	// DisableEdge removes the Wavelength edge servers (ablation).
	DisableEdge bool `json:"disable_edge"`
	// DisablePolicy serves every UE from the best deployed technology
	// regardless of traffic (ablation of the elevation policy).
	DisablePolicy bool `json:"disable_policy"`
	// VideoSeconds and GamingSeconds shorten the two long app tests;
	// zero keeps the paper's durations (180 s and 90 s). Each is at most
	// MaxAppSeconds.
	VideoSeconds  int `json:"video_seconds"`
	GamingSeconds int `json:"gaming_seconds"`
	// Workers caps how many operator lanes are simulated concurrently;
	// 0 means GOMAXPROCS. Any value produces byte-identical output.
	Workers int `json:"workers"`
	// CrowdSize attaches this many background UEs per operator — the
	// metro-scale crowd, at most 1<<20. 0 keeps the classic six-handset
	// campaign.
	CrowdSize int `json:"crowd_size"`
	// CrowdSamples is how many crowd UEs run speedtest measurements
	// during the campaign; 0 defaults to 120 when a crowd is enabled.
	CrowdSamples int `json:"crowd_samples"`
	// LoadModel selects the sector-load backend the handsets see:
	// "" or LoadModelStandin keeps the per-UE stand-in (byte-identical to
	// the historical campaign); LoadModelDemand couples handsets to the
	// crowd registry's aggregate demand.
	LoadModel string `json:"load_model"`
	// Obs, when non-nil, receives metrics, phase timings, and progress
	// from the run (see internal/obs). It is a write-only side channel:
	// enabling it never changes the dataset — the simulation is
	// byte-identical with Obs set or nil (pinned by a regression test).
	Obs *obs.Recorder `json:"-"`
}

// Fingerprint is the config's sha256 with Obs and Workers zeroed — the
// value stamped into run manifests as config_sha256. It hashes the
// inputs that decide the output; the observability side channel and the
// worker count change no byte of it, so equal fingerprints mean
// byte-identical runs.
func (c Config) Fingerprint() string {
	c.Obs = nil
	c.Workers = 0
	return obs.Fingerprint(c)
}

// stamp records the config facts the manifest reports.
func (c Config) stamp() {
	c.Obs.SetLabel("seed", strconv.FormatInt(c.Seed, 10))
	c.Obs.SetLabel("config_sha256", c.Fingerprint())
}

// Load model backends for Config.LoadModel.
const (
	LoadModelStandin = core.LoadModelStandin
	LoadModelDemand  = core.LoadModelDemand
)

// MaxAppSeconds bounds VideoSeconds and GamingSeconds: one hour, twenty
// times the paper's longest app test. It keeps a single job's simulated
// app time finite and far below the ~9.2·10⁹ s at which the duration
// would overflow time.Duration.
const MaxAppSeconds = 3600

// Validate rejects configs outside the supported envelope without
// running anything — the check Run performs first, before any simulation
// state is built, so fleet sweeps fail fast with a clear error instead of
// deep inside a lane. Services use it to refuse a bad job at submission
// time rather than at execution time.
func (c Config) Validate() error {
	switch c.LoadModel {
	case "", LoadModelStandin, LoadModelDemand:
	default:
		return fmt.Errorf("cellwheels: unknown load_model %q (want %q or %q)", c.LoadModel, LoadModelStandin, LoadModelDemand)
	}
	if !(c.LimitKm >= 0) { // NaN as well
		return fmt.Errorf("cellwheels: limit_km must be >= 0, got %v", c.LimitKm)
	}
	if c.CrowdSize < 0 || c.CrowdSize > ue.MaxSize {
		return fmt.Errorf("cellwheels: crowd_size must be in [0, %d], got %d", ue.MaxSize, c.CrowdSize)
	}
	if c.CrowdSamples < 0 {
		return fmt.Errorf("cellwheels: crowd_samples must be >= 0, got %d", c.CrowdSamples)
	}
	if c.VideoSeconds < 0 || c.VideoSeconds > MaxAppSeconds {
		return fmt.Errorf("cellwheels: video_seconds must be in [0, %d], got %d", MaxAppSeconds, c.VideoSeconds)
	}
	if c.GamingSeconds < 0 || c.GamingSeconds > MaxAppSeconds {
		return fmt.Errorf("cellwheels: gaming_seconds must be in [0, %d], got %d", MaxAppSeconds, c.GamingSeconds)
	}
	return nil
}

func (c Config) internal() core.Config {
	cfg := core.Config{
		Seed:          c.Seed,
		SkipApps:      c.SkipApps,
		SkipStatic:    c.SkipStatic,
		SkipPassive:   c.SkipPassive,
		DisableEdge:   c.DisableEdge,
		DisablePolicy: c.DisablePolicy,
		Workers:       c.Workers,
		CrowdSize:     c.CrowdSize,
		CrowdSamples:  c.CrowdSamples,
		LoadModel:     c.LoadModel,
		Obs:           c.Obs,
	}
	if c.LimitKm > 0 {
		cfg.Limit = unit.Meters(c.LimitKm) * unit.Kilometer
	}
	if c.VideoSeconds > 0 {
		cfg.VideoDuration = time.Duration(c.VideoSeconds) * time.Second
	}
	if c.GamingSeconds > 0 {
		cfg.GamingDuration = time.Duration(c.GamingSeconds) * time.Second
	}
	return cfg
}

// Study is a completed campaign: the consolidated dataset plus everything
// needed to regenerate the paper's tables and figures.
type Study struct {
	db       *dataset.DB
	route    *geo.Route
	campaign *core.Campaign
}

// Run executes a campaign and consolidates its logs.
func Run(cfg Config) (*Study, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.stamp()
	c := core.NewCampaign(cfg.internal())
	db, err := c.MergeMatched(c.Run())
	if err != nil {
		return nil, fmt.Errorf("cellwheels: %w", err)
	}
	return &Study{db: db, route: c.Route(), campaign: c}, nil
}

// WriteCoverageGeoJSON writes map-ready GeoJSON into dir: the route with
// its cities, and one file per (operator, technology) with that
// technology's coverage fragments. Only available on studies produced by
// Run (the deployment ground truth does not survive JSON round trips).
func (s *Study) WriteCoverageGeoJSON(dir string) error {
	if s.campaign == nil {
		return fmt.Errorf("cellwheels: coverage GeoJSON requires a freshly run study")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("cellwheels: %w", err)
	}
	routeJSON, err := s.route.GeoJSON(0)
	if err != nil {
		return fmt.Errorf("cellwheels: %w", err)
	}
	if err := atomicio.WriteFileBytes(filepath.Join(dir, "route.geojson"), 0o644, routeJSON); err != nil {
		return fmt.Errorf("cellwheels: %w", err)
	}
	// Iterate operators in their canonical order, not map order, so the
	// set of written files is produced (and any error surfaced)
	// deterministically.
	maps := s.campaign.Maps()
	for _, op := range radio.Operators() {
		m, ok := maps[op]
		if !ok {
			continue
		}
		for _, tech := range radio.Technologies() {
			frags := m.Fragments(tech)
			if len(frags) == 0 {
				continue
			}
			segs := make([][2]unit.Meters, len(frags))
			for i, f := range frags {
				segs[i] = [2]unit.Meters{f.Start, f.End}
			}
			label := op.String() + " " + tech.String()
			out, err := s.route.SegmentsGeoJSON(label, segs, 0)
			if err != nil {
				return fmt.Errorf("cellwheels: %w", err)
			}
			name := op.Short() + "-" + tech.String() + ".geojson"
			if err := atomicio.WriteFileBytes(filepath.Join(dir, name), 0o644, out); err != nil {
				return fmt.Errorf("cellwheels: %w", err)
			}
		}
	}
	return nil
}

// Load reads a dataset previously written with WriteJSON.
func Load(r io.Reader) (*Study, error) {
	db, err := dataset.ReadJSON(r)
	if err != nil {
		return nil, fmt.Errorf("cellwheels: %w", err)
	}
	return &Study{db: db, route: geo.DefaultRoute()}, nil
}

// WriteJSON serializes the full dataset.
func (s *Study) WriteJSON(w io.Writer) error { return s.db.WriteJSON(w) }

// WriteJSONFile serializes the full dataset to path atomically via the
// shared writer, so a failed or interrupted write never leaves a
// truncated dataset behind. The bytes written are exactly WriteJSON's.
func (s *Study) WriteJSONFile(path string) error {
	return atomicio.WriteFile(path, 0o644, s.WriteJSON)
}

// csvTables are the per-table CSV files WriteCSV writes, in order.
var csvTables = []struct {
	name  string
	write func(*dataset.DB, io.Writer) error
}{
	{"throughput.csv", (*dataset.DB).WriteThroughputCSV},
	{"rtt.csv", (*dataset.DB).WriteRTTCSV},
	{"handovers.csv", (*dataset.DB).WriteHandoverCSV},
	{"appruns.csv", (*dataset.DB).WriteAppRunCSV},
}

// CSVFiles lists the file names WriteCSV writes, in order.
func CSVFiles() []string {
	names := make([]string, len(csvTables))
	for i, t := range csvTables {
		names[i] = t.name
	}
	return names
}

// WriteCSV writes the per-table CSV files into dir, each atomically via
// the shared writer.
func (s *Study) WriteCSV(dir string) error {
	for _, t := range csvTables {
		write := func(w io.Writer) error { return t.write(s.db, w) }
		if err := atomicio.WriteFile(filepath.Join(dir, t.name), 0o644, write); err != nil {
			return err
		}
	}
	return nil
}

// MeasuredOokla renders the measured variant of Table 3: the crowd
// column is simulated with the SpeedTest methodology (static users,
// nearby servers, parallel flows) over this study's deployments, instead
// of copied from the published Ookla report. Only available on studies
// produced by Run (not Load); samples is per carrier.
func (s *Study) MeasuredOokla(samples int) string {
	if s.campaign == nil {
		return "measured Ookla comparison requires a freshly run study"
	}
	crowd := s.campaign.MeasureSpeedtestCrowd(samples)
	return core.TableOoklaMeasured(s.db, crowd).Render()
}

// Report renders every table and figure of the paper, in paper order.
func (s *Study) Report() string {
	maps := core.FigureCoverageMaps(s.db, s.route, 100)
	return core.Report(s.db, maps)
}

// Section renders one table or figure by its paper identifier: "table1",
// "table2", "table3", "table4", "table5", "fig1" .. "fig16", or
// "multivariate". Unknown identifiers return an error.
func (s *Study) Section(id string) (string, error) {
	maps := func() core.CoverageMaps { return core.FigureCoverageMaps(s.db, s.route, 100) }
	out, ok := core.Section(s.db, maps, id)
	if !ok {
		return "", fmt.Errorf("cellwheels: unknown section %q", id)
	}
	return out, nil
}

// SectionIDs lists the identifiers Section accepts, in paper order.
func SectionIDs() []string { return core.SectionIDs() }

// CarrierSummary is one operator's headline numbers.
type CarrierSummary struct {
	Operator string
	// Share5G is the fraction of driven miles served by any NR flavor.
	Share5G float64
	// ShareHighSpeed is the mid/mmWave share of driven miles.
	ShareHighSpeed float64
	// DrivingDLMedianMbps and friends are medians over 500 ms samples.
	DrivingDLMedianMbps float64
	DrivingULMedianMbps float64
	DrivingRTTMedianMS  float64
	// StaticDLMedianMbps is the city-baseline median.
	StaticDLMedianMbps float64
	// HandoversPerMileMedian is over downlink throughput tests.
	HandoversPerMileMedian float64
	// VideoQoEMedian and GamingBitrateMedian summarize two of the apps.
	VideoQoEMedian      float64
	GamingBitrateMedian float64
}

// Summary computes the study's headline numbers.
type Summary struct {
	RouteKm  float64
	Tests    int
	Samples  int
	Carriers []CarrierSummary
	// FracBelow5Mbps pools both directions' driving samples.
	FracBelow5Mbps float64
}

// Summary extracts the headline numbers a quickstart would print.
func (s *Study) Summary() Summary {
	cov := core.FigureCoverage(s.db)
	svd := core.FigureStaticVsDriving(s.db)
	hos := core.FigureHandoverStats(s.db)
	vid := core.FigureVideo(s.db)
	game := core.FigureGaming(s.db)

	out := Summary{
		RouteKm: s.db.Meta.RouteKm,
		Tests:   len(s.db.Tests),
		Samples: len(s.db.Throughput) + len(s.db.RTT),
	}
	var all []float64
	for _, smp := range s.db.Throughput {
		if !smp.Static {
			all = append(all, smp.Mbps)
		}
	}
	out.FracBelow5Mbps = stats.NewCDF(all).FracBelow(5)

	for _, op := range radio.Operators() {
		cs := CarrierSummary{Operator: op.String()}
		cs.Share5G = core.Share5G(cov.Overall[op])
		cs.ShareHighSpeed = core.ShareHighSpeed(cov.Overall[op])
		cs.DrivingDLMedianMbps = svd.ThroughputOf(op, radio.Downlink, false).Median
		cs.DrivingULMedianMbps = svd.ThroughputOf(op, radio.Uplink, false).Median
		cs.StaticDLMedianMbps = svd.ThroughputOf(op, radio.Downlink, true).Median
		cs.DrivingRTTMedianMS = svd.RTTOf(op, false).Median
		cs.HandoversPerMileMedian = hos.PerMileOf(op, radio.Downlink).Median
		cs.VideoQoEMedian = vid.QoE[op].Median
		cs.GamingBitrateMedian = game.Bitrate[op].Median
		out.Carriers = append(out.Carriers, cs)
	}
	return out
}

// String renders the summary in a few lines.
func (s Summary) String() string {
	out := fmt.Sprintf("cellwheels study: %.0f km, %d tests, %d samples, %.0f%% of driving samples < 5 Mbps\n",
		s.RouteKm, s.Tests, s.Samples, 100*s.FracBelow5Mbps)
	for _, c := range s.Carriers {
		out += fmt.Sprintf("  %-8s 5G %.0f%% (high-speed %.0f%%) | drive DL %.1f / UL %.1f Mbps, RTT %.1f ms | static DL %.1f | HO/mi %.1f | video QoE %.1f | gaming %.1f Mbps\n",
			c.Operator, 100*c.Share5G, 100*c.ShareHighSpeed,
			c.DrivingDLMedianMbps, c.DrivingULMedianMbps, c.DrivingRTTMedianMS,
			c.StaticDLMedianMbps, c.HandoversPerMileMedian,
			c.VideoQoEMedian, c.GamingBitrateMedian)
	}
	return out
}

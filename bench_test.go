package cellwheels

// The benchmark harness regenerates the tables and figures of the paper's
// evaluation. Each BenchmarkTableN / BenchmarkFigN builds (once) a
// mid-size campaign dataset and then times the analysis that produces the
// corresponding result, printing the rows/series once so `go test
// -bench=. -v` doubles as a report generator. Figures 4-10 and 12 and the
// multivariate fit, which core computes only for its report sections,
// have the same benches in internal/core. The Ablation benches run
// paired campaigns with one design choice toggled and report the effect
// as custom metrics.
//
// Absolute numbers are not expected to match the paper's testbed — the
// substrate is a simulator — but the shapes (who wins, by what factor,
// where the crossovers fall) are asserted in the test suite and recorded
// in EXPERIMENTS.md.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/nuwins/cellwheels/internal/core"
	"github.com/nuwins/cellwheels/internal/dataset"
	"github.com/nuwins/cellwheels/internal/geo"
	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/transport"
	"github.com/nuwins/cellwheels/internal/unit"
)

// benchDB builds the shared benchmark dataset once: 700 km of the route
// with the full test rotation, static baselines, and passive loggers.
var (
	benchOnce sync.Once
	benchData *dataset.DB
)

func benchDB(b *testing.B) *dataset.DB {
	b.Helper()
	benchOnce.Do(func() {
		cfg := core.Config{
			Seed:           1,
			Limit:          700 * unit.Kilometer,
			VideoDuration:  60 * time.Second,
			GamingDuration: 40 * time.Second,
		}
		db, err := core.NewCampaign(cfg).RunAndMerge()
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

func BenchmarkTable1DatasetStats(b *testing.B) {
	db := benchDB(b)
	b.ResetTimer()
	var out core.DatasetStats
	for i := 0; i < b.N; i++ {
		out = core.TableDatasetStats(db)
	}
	printOnce("table1", out.Render())
}

func BenchmarkFig1CoverageMaps(b *testing.B) {
	db := benchDB(b)
	route := geo.DefaultRoute()
	b.ResetTimer()
	var out core.CoverageMaps
	for i := 0; i < b.N; i++ {
		out = core.FigureCoverageMaps(db, route, 100)
	}
	printOnce("fig1", out.Render())
}

func BenchmarkFig2Coverage(b *testing.B) {
	db := benchDB(b)
	b.ResetTimer()
	var out core.Coverage
	for i := 0; i < b.N; i++ {
		out = core.FigureCoverage(db)
	}
	printOnce("fig2", out.Render())
}

func BenchmarkFig3StaticVsDriving(b *testing.B) {
	db := benchDB(b)
	b.ResetTimer()
	var out core.StaticVsDriving
	for i := 0; i < b.N; i++ {
		out = core.FigureStaticVsDriving(db)
	}
	printOnce("fig3", out.Render())
}

func BenchmarkTable2KPICorrelation(b *testing.B) {
	db := benchDB(b)
	b.ResetTimer()
	var out core.KPICorrelation
	for i := 0; i < b.N; i++ {
		out = core.TableKPICorrelation(db)
	}
	printOnce("table2", out.Render())
}

func BenchmarkTable3Ookla(b *testing.B) {
	db := benchDB(b)
	b.ResetTimer()
	var out core.OoklaComparison
	for i := 0; i < b.N; i++ {
		out = core.TableOoklaComparison(db)
	}
	printOnce("table3", out.Render())
}

func BenchmarkFig11HandoverStats(b *testing.B) {
	db := benchDB(b)
	b.ResetTimer()
	var out core.HandoverStats
	for i := 0; i < b.N; i++ {
		out = core.FigureHandoverStats(db)
	}
	printOnce("fig11", out.Render())
}

func BenchmarkFig13ARApp(b *testing.B) {
	db := benchDB(b)
	b.ResetTimer()
	var out core.OffloadAppResult
	for i := 0; i < b.N; i++ {
		out = core.FigureARApp(db)
	}
	printOnce("fig13", out.Render())
}

func BenchmarkFig14CAVApp(b *testing.B) {
	db := benchDB(b)
	b.ResetTimer()
	var out core.OffloadAppResult
	for i := 0; i < b.N; i++ {
		out = core.FigureCAVApp(db)
	}
	printOnce("fig14", out.Render())
}

func BenchmarkFig15Video(b *testing.B) {
	db := benchDB(b)
	b.ResetTimer()
	var out core.VideoResult
	for i := 0; i < b.N; i++ {
		out = core.FigureVideo(db)
	}
	printOnce("fig15", out.Render())
}

func BenchmarkFig16Gaming(b *testing.B) {
	db := benchDB(b)
	b.ResetTimer()
	var out core.GamingResult
	for i := 0; i < b.N; i++ {
		out = core.FigureGaming(db)
	}
	printOnce("fig16", out.Render())
}

func BenchmarkTable4AppConfigs(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = core.TableAppConfigs()
	}
	printOnce("table4", out)
}

func BenchmarkTable5MAPTable(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = core.TableMAP()
	}
	printOnce("table5", out)
}

func BenchmarkTable3OoklaMeasured(b *testing.B) {
	// The measured variant of Table 3: the crowd column is simulated with
	// the speedtest methodology (static users, nearby server, parallel
	// flows) instead of copied from the published report.
	db := benchDB(b)
	campaign := core.NewCampaign(core.Config{Seed: 1})
	crowd := campaign.MeasureSpeedtestCrowd(40)
	b.ResetTimer()
	var out core.OoklaMeasured
	for i := 0; i < b.N; i++ {
		out = core.TableOoklaMeasured(db, crowd)
	}
	printOnce("table3-measured", out.Render())
}

// --- Ablation benches: design choices DESIGN.md calls out ---

// ablationCampaign runs a small campaign with the given config tweak,
// cached by name.
var ablationCache sync.Map

func ablationDB(b *testing.B, name string, mutate func(*core.Config)) *dataset.DB {
	b.Helper()
	if v, ok := ablationCache.Load(name); ok {
		return v.(*dataset.DB)
	}
	cfg := core.Config{
		Seed:        2,
		Limit:       250 * unit.Kilometer,
		SkipStatic:  true,
		SkipPassive: true,
	}
	mutate(&cfg)
	db, err := core.NewCampaign(cfg).RunAndMerge()
	if err != nil {
		b.Fatal(err)
	}
	ablationCache.Store(name, db)
	return db
}

func medianDL(db *dataset.DB, op radio.Operator) float64 {
	return core.FigureStaticVsDriving(db).ThroughputOf(op, radio.Downlink, false).Median
}

// BenchmarkAblationPolicyPassive measures the C3 mechanism: with the
// traffic-aware elevation policy disabled, the passive/active coverage
// disparity of Fig 1 collapses.
func BenchmarkAblationPolicyPassive(b *testing.B) {
	on := ablationDB(b, "policy-on", func(cfg *core.Config) { cfg.SkipApps = true; cfg.SkipPassive = false })
	off := ablationDB(b, "policy-off", func(cfg *core.Config) {
		cfg.SkipApps = true
		cfg.SkipPassive = false
		cfg.DisablePolicy = true
	})
	route := geo.DefaultRoute()
	var gapOn, gapOff float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mOn := core.FigureCoverageMaps(on, route, 60)
		mOff := core.FigureCoverageMaps(off, route, 60)
		gapOn = mOn.Active5G[radio.TMobile] - mOn.Passive5G[radio.TMobile]
		gapOff = mOff.Active5G[radio.TMobile] - mOff.Passive5G[radio.TMobile]
	}
	b.ReportMetric(100*gapOn, "gap-pts/policy-on")
	b.ReportMetric(100*gapOff, "gap-pts/policy-off")
	printOnce("ablation-policy", fmt.Sprintf(
		"Ablation: T-Mobile passive-vs-active 5G gap = %.1f pts with policy, %.1f pts without",
		100*gapOn, 100*gapOff))
}

// BenchmarkAblationEdgeServers measures what removing the Wavelength
// deployment costs Verizon's RTT.
func BenchmarkAblationEdgeServers(b *testing.B) {
	with := ablationDB(b, "edge-on", func(cfg *core.Config) { cfg.SkipApps = true })
	without := ablationDB(b, "edge-off", func(cfg *core.Config) { cfg.SkipApps = true; cfg.DisableEdge = true })
	var rttWith, rttWithout float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rttWith = core.FigureStaticVsDriving(with).RTTOf(radio.Verizon, false).Median
		rttWithout = core.FigureStaticVsDriving(without).RTTOf(radio.Verizon, false).Median
	}
	b.ReportMetric(rttWith, "ms/edge-on")
	b.ReportMetric(rttWithout, "ms/edge-off")
	printOnce("ablation-edge", fmt.Sprintf(
		"Ablation: Verizon driving RTT median = %.1f ms with edge, %.1f ms cloud-only",
		rttWith, rttWithout))
}

// BenchmarkAblationCompression measures frame compression's effect on the
// CAV app (§7.1.2: ~8× E2E reduction).
func BenchmarkAblationCompression(b *testing.B) {
	db := ablationDB(b, "apps", func(cfg *core.Config) {})
	var raw, comp float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := core.FigureCAVApp(db)
		raw = r.E2E[radio.Verizon][0].Median
		comp = r.E2E[radio.Verizon][1].Median
	}
	b.ReportMetric(raw, "ms/raw")
	b.ReportMetric(comp, "ms/compressed")
	printOnce("ablation-compression", fmt.Sprintf(
		"Ablation: Verizon CAV E2E median = %.0f ms raw, %.0f ms compressed (%.1fx)",
		raw, comp, raw/comp))
}

// BenchmarkAblationBufferbloat sweeps the bottleneck buffer size and
// reports the driving RTT tail it produces.
func BenchmarkAblationBufferbloat(b *testing.B) {
	deep := ablationDB(b, "buf-deep", func(cfg *core.Config) { cfg.SkipApps = true })
	shallow := ablationDB(b, "buf-shallow", func(cfg *core.Config) {
		cfg.SkipApps = true
		cfg.Transport = transport.Options{BufferBDPs: 1}
	})
	var tputDeep, tputShallow float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tputDeep = medianDL(deep, radio.TMobile)
		tputShallow = medianDL(shallow, radio.TMobile)
	}
	b.ReportMetric(tputDeep, "Mbps/6bdp")
	b.ReportMetric(tputShallow, "Mbps/1bdp")
	printOnce("ablation-bufferbloat", fmt.Sprintf(
		"Ablation: T-Mobile driving DL median = %.1f Mbps at 6 BDP buffers, %.1f at 1 BDP",
		tputDeep, tputShallow))
}

// BenchmarkAblationMultipath compares the best single carrier against an
// oracle bond over all three — recommendation §8-(2).
func BenchmarkAblationMultipath(b *testing.B) {
	db := ablationDB(b, "apps", func(cfg *core.Config) {})
	var bestSingle, bonded float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bestSingle, bonded = multipathGain(db)
	}
	b.ReportMetric(bestSingle, "Mbps/best-single")
	b.ReportMetric(bonded, "Mbps/bonded")
	printOnce("ablation-multipath", fmt.Sprintf(
		"Ablation: driving DL median = %.1f Mbps best single carrier, %.1f Mbps 3-way bond",
		bestSingle, bonded))
}

// multipathGain computes median best-single vs bonded throughput over
// concurrent windows.
func multipathGain(db *dataset.DB) (bestSingle, bonded float64) {
	windows := map[time.Time]map[radio.Operator]float64{}
	for _, s := range db.Throughput {
		if s.Dir != radio.Downlink || s.Static {
			continue
		}
		key := s.Time.Truncate(500 * time.Millisecond)
		if windows[key] == nil {
			windows[key] = map[radio.Operator]float64{}
		}
		windows[key][s.Op] = s.Mbps
	}
	var bests, sums []float64
	for _, w := range windows {
		if len(w) != 3 {
			continue
		}
		mx, sum := 0.0, 0.0
		for _, v := range w {
			if v > mx {
				mx = v
			}
			sum += v
		}
		bests = append(bests, mx)
		sums = append(sums, sum)
	}
	sortFloats(bests)
	sortFloats(sums)
	if len(bests) == 0 {
		return 0, 0
	}
	return bests[len(bests)/2], sums[len(sums)/2]
}

func sortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// BenchmarkCampaignRun tracks the lane-engine speedup: the same campaign
// at 1, 2, and 3 concurrent operator lanes. The output is byte-identical
// across worker counts, so the sub-benchmarks differ only in wall clock.
func BenchmarkCampaignRun(b *testing.B) {
	for _, workers := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := core.Config{
					Seed:           1,
					Limit:          80 * unit.Kilometer,
					Workers:        workers,
					VideoDuration:  20 * time.Second,
					GamingDuration: 15 * time.Second,
				}
				core.NewCampaign(cfg).Run()
			}
		})
	}
}

// BenchmarkFleetRun tracks the fleet engine's scaling: the same 4-run
// fleet (2 sweep cells × 2 replicates) at 1, 2, and 4 concurrent runs.
// The fleet report and manifest are byte-identical across worker counts,
// so the sub-benchmarks differ only in wall clock.
func BenchmarkFleetRun(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := RunFleet(FleetConfig{
					MasterSeed: 1,
					Replicates: 2,
					Base:       Config{LimitKm: 40, VideoSeconds: 20, GamingSeconds: 15, SkipStatic: true},
					Sweep: []SweepAxis{{
						Field:  "disable_edge",
						Values: []json.RawMessage{json.RawMessage("false"), json.RawMessage("true")},
					}},
					Workers: workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Failed() > 0 {
					b.Fatalf("%d fleet runs failed", res.Failed())
				}
			}
		})
	}
}

// BenchmarkReport times the paper-report assembly over the shared
// benchmark dataset: every table and figure analysis plus rendering into
// the final text report. The sections render on GOMAXPROCS workers from
// one shared view of the dataset, so the time scales with -cpu.
func BenchmarkReport(b *testing.B) {
	db := benchDB(b)
	maps := core.FigureCoverageMaps(db, geo.DefaultRoute(), 100)
	b.ReportAllocs()
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = core.Report(db, maps)
	}
	if len(out) == 0 {
		b.Fatal("empty report")
	}
}

// BenchmarkLoad times dataset decoding: Load of the 700 km benchmark
// dataset's JSON, as `cellwheels report -in` does before it renders a
// report, from memory and from a file, whose reported size lets
// ReadJSON size its buffer once. The decoder parses a table's ranges on
// GOMAXPROCS goroutines, so the time scales with -cpu: at -cpu 1 each
// table is one range.
func BenchmarkLoad(b *testing.B) {
	var buf bytes.Buffer
	if err := benchDB(b).WriteJSON(&buf); err != nil {
		b.Fatal(err)
	}
	b.Run("memory", func(b *testing.B) {
		b.SetBytes(int64(buf.Len()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Load(bytes.NewReader(buf.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("file", func(b *testing.B) {
		path := filepath.Join(b.TempDir(), "dataset.json")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Len()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f, err := os.Open(path)
			if err != nil {
				b.Fatal(err)
			}
			_, err = Load(f)
			f.Close()
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWriteJSON times dataset encoding: WriteJSON of the 700 km
// benchmark dataset to io.Discard, as `cellwheels run` writes its
// output. The encoder encodes a table's chunks on GOMAXPROCS
// goroutines, so the time scales with -cpu: at -cpu 1 one worker
// encodes them while the caller writes.
func BenchmarkWriteJSON(b *testing.B) {
	db := benchDB(b)
	var buf bytes.Buffer
	if err := db.WriteJSON(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.WriteJSON(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLogsyncMerge times log reconciliation alone. A merge
// consumes its raw logs, so each iteration runs a fresh campaign with
// the timer stopped and merges its raw logs into the consolidated
// database.
func BenchmarkLogsyncMerge(b *testing.B) {
	cfg := core.Config{
		Seed:           1,
		Limit:          80 * unit.Kilometer,
		VideoDuration:  20 * time.Second,
		GamingDuration: 15 * time.Second,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := core.NewCampaign(cfg)
		raw := c.Run()
		b.StartTimer()
		if _, _, err := c.Merge(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaignEndToEnd times the full pipeline on a short slice:
// drive + RAN + transport + logging + sync + merge.
func BenchmarkCampaignEndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := core.Config{
			Seed:        int64(i + 1),
			Limit:       30 * unit.Kilometer,
			SkipApps:    true,
			SkipStatic:  true,
			SkipPassive: true,
		}
		if _, err := core.NewCampaign(cfg).RunAndMerge(); err != nil {
			b.Fatal(err)
		}
	}
}

package cellwheels_test

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"github.com/nuwins/cellwheels"
	"github.com/nuwins/cellwheels/internal/core"
	"github.com/nuwins/cellwheels/internal/dataset"
	"github.com/nuwins/cellwheels/internal/deploy"
	"github.com/nuwins/cellwheels/internal/geo"
	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/ran"
	"github.com/nuwins/cellwheels/internal/simrand"
	"github.com/nuwins/cellwheels/internal/stats"
	"github.com/nuwins/cellwheels/internal/transport"
	"github.com/nuwins/cellwheels/internal/unit"
)

// Example runs a slice of the LA→Boston campaign, with the two long app
// tests shortened, and prints the headline numbers, Figure 3 and how
// many of the paper's sections the study renders. Real uses pass a
// larger LimitKm (or zero for the whole route) and print Report().
func Example() {
	study, err := cellwheels.Run(cellwheels.Config{
		Seed:          42,
		LimitKm:       60,
		VideoSeconds:  60,
		GamingSeconds: 45,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(study.Summary())
	fig3, err := study.Section("fig3")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(fig3)
	rendered := 0
	for _, id := range cellwheels.SectionIDs() {
		if _, err := study.Section(id); err == nil {
			rendered++
		}
	}
	fmt.Printf("%d sections rendered\n", rendered)
	// Output:
	// cellwheels study: 60 km, 456 tests, 11220 samples, 21% of driving samples < 5 Mbps
	//   Verizon  5G 18% (high-speed 18%) | drive DL 99.9 / UL 14.3 Mbps, RTT 45.8 ms | static DL 932.7 | HO/mi 5.5 | video QoE 36.7 | gaming 47.9 Mbps
	//   T-Mobile 5G 100% (high-speed 63%) | drive DL 66.6 / UL 15.8 Mbps, RTT 67.0 ms | static DL 502.4 | HO/mi 0.0 | video QoE 13.5 | gaming 22.5 Mbps
	//   AT&T     5G 49% (high-speed 1%) | drive DL 31.2 / UL 18.2 Mbps, RTT 66.6 ms | static DL 526.4 | HO/mi 0.0 | video QoE 2.6 | gaming 24.1 Mbps
	// Figure 3: static vs driving throughput (Mbps)
	// operator  dir  static med  static max  drive med  drive p75  drive max
	// Verizon   DL   932.7       1304.9      99.9       496.6      1418.6
	// Verizon   UL   109.1       133.3       14.3       20.7       133.8
	// T-Mobile  DL   502.4       645.1       66.6       117.6      491.2
	// T-Mobile  UL   46.6        85.3        15.8       28.5       81.8
	// AT&T      DL   526.4       703.1       31.2       76.4       717.3
	// AT&T      UL   36.3        57.3        18.2       27.5       38.6
	// Figure 3: static vs driving RTT (ms)
	// operator  static med  static max  drive med  drive p90  drive max
	// Verizon   40.5        86.3        45.8       94.1       3000.0
	// T-Mobile  58.0        91.4        67.0       96.7       2085.8
	// AT&T      57.5        92.0        66.6       110.2      2340.8
	// Figure 3: driving samples below 5 Mbps
	// direction  fraction
	// DL         10%
	// UL         32%
	// 22 sections rendered
}

// ExampleStudy_Section renders one figure by its paper identifier.
func ExampleStudy_Section() {
	study, err := cellwheels.Run(cellwheels.Config{
		Seed:        1,
		LimitKm:     10,
		SkipApps:    true,
		SkipStatic:  true,
		SkipPassive: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := study.Section("table2"); err != nil {
		log.Fatal(err)
	}
	_, err = study.Section("fig99")
	fmt.Println(err)
	// Output: cellwheels: unknown section "fig99"
}

// campaign runs a core campaign and merges its logs.
func campaign(cfg core.Config) *dataset.DB {
	db, err := core.NewCampaign(cfg).RunAndMerge()
	if err != nil {
		log.Fatal(err)
	}
	return db
}

func median(xs []float64) float64 { return stats.NewCDF(xs).Median() }

// Example_coveragemap shows the paper's Fig 1 lesson (§4.1): the
// technology a passive logger sees is not the one an active, backlogged
// UE gets. It prints passive and active strips of 10 km bins over the
// first 150 km, with the operators' elevation policies and without
// them: with every UE on the best deployed technology, the two strips
// collapse onto each other.
func Example_coveragemap() {
	const km = 150
	route := geo.DefaultRoute()
	bins := int(route.Total() / (10 * unit.Kilometer))
	for _, disablePolicy := range []bool{false, true} {
		db := campaign(core.Config{
			Seed:          3,
			Limit:         km * unit.Kilometer,
			SkipApps:      true,
			SkipStatic:    true,
			DisablePolicy: disablePolicy,
		})
		maps := core.FigureCoverageMaps(db, route, bins)
		fmt.Printf("policy disabled: %v\n", disablePolicy)
		for _, op := range radio.Operators() {
			s := maps.Strip[op]
			fmt.Printf("  %-8s passive [%s] active [%s] 5G gap %4.1f pts\n",
				op, s[0][:km/10], s[1][:km/10], 100*(maps.Active5G[op]-maps.Passive5G[op]))
		}
	}
	// Output:
	// policy disabled: false
	//   Verizon  passive [LLLAAAAAAAAAALL] active [LmLAAAAAAAAAALL] 5G gap  6.7 pts
	//   T-Mobile passive [LAALLLAAAAAAAAA] active [mmmmlmAmmlAAAAm] 5G gap 66.7 pts
	//   AT&T     passive [AAAAAAAALALAALA] active [mllllllAlAlAALA] 5G gap 60.0 pts
	// policy disabled: true
	//   Verizon  passive [LmLAAAAAAAAAALL] active [LmLAAAAAAAAAALL] 5G gap  0.0 pts
	//   T-Mobile passive [mmmmlmmmmlAmAmm] active [mmmmlmmmmlAAAmm] 5G gap -6.7 pts
	//   AT&T     passive [mllllllAlAlAALA] active [mllllllAlAlAALA] 5G gap  0.0 pts
}

// Example_edgeboost quantifies the paper's recommendation §8-(3), more
// edge services: the same campaign slice out of Los Angeles, where a
// Wavelength edge site exists, with and without the edge servers, and
// Verizon's AR latency and ping RTT in each.
func Example_edgeboost() {
	for _, disableEdge := range []bool{false, true} {
		db := campaign(core.Config{
			Seed:        11,
			Limit:       80 * unit.Kilometer,
			SkipPassive: true,
			SkipStatic:  true,
			DisableEdge: disableEdge,
		})
		var e2e, rtt []float64
		for _, r := range db.AppRuns {
			if r.Op == radio.Verizon && r.Kind == dataset.AppAR && r.Compressed && r.E2EMS > 0 {
				e2e = append(e2e, r.E2EMS)
			}
		}
		for _, s := range db.RTT {
			if s.Op == radio.Verizon && !s.Lost {
				rtt = append(rtt, s.RTTMS)
			}
		}
		edge := db.TestsWhere(func(t dataset.Test) bool { return t.Op == radio.Verizon && t.Edge })
		all := db.TestsWhere(func(t dataset.Test) bool { return t.Op == radio.Verizon })
		fmt.Printf("edge disabled: %-5v Verizon AR E2E median %5.1f ms, ping RTT median %4.1f ms, %d of %d tests on an edge site\n",
			disableEdge, median(e2e), median(rtt), len(edge), len(all))
	}
	// Output:
	// edge disabled: false Verizon AR E2E median 140.5 ms, ping RTT median 41.7 ms, 98 of 101 tests on an edge site
	// edge disabled: true  Verizon AR E2E median 162.3 ms, ping RTT median 64.8 ms, 0 of 101 tests on an edge site
}

// Example_importcsv follows the real-data path: a campaign's tables go
// out as CSV and come back in as if they were external drive-test logs,
// and the analysis suite runs on the imported tables unchanged.
func Example_importcsv() {
	db := campaign(core.Config{Seed: 5, Limit: 40 * unit.Kilometer, SkipApps: true, SkipPassive: true})
	var tput, rtt, ho bytes.Buffer
	for _, err := range []error{db.WriteThroughputCSV(&tput), db.WriteRTTCSV(&rtt), db.WriteHandoverCSV(&ho)} {
		if err != nil {
			log.Fatal(err)
		}
	}

	imported := &dataset.DB{}
	var err error
	if imported.Throughput, err = dataset.ReadThroughputCSV(&tput); err != nil {
		log.Fatal(err)
	}
	if imported.RTT, err = dataset.ReadRTTCSV(&rtt); err != nil {
		log.Fatal(err)
	}
	if imported.Handovers, err = dataset.ReadHandoverCSV(&ho); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("imported %d throughput, %d RTT, %d handover rows\n",
		len(imported.Throughput), len(imported.RTT), len(imported.Handovers))
	fmt.Print(core.FigureStaticVsDriving(imported).Render())
	fmt.Print(core.TableKPICorrelation(imported).Render())
	// Output:
	// imported 15840 throughput, 13164 RTT, 168 handover rows
	// Figure 3: static vs driving throughput (Mbps)
	// operator  dir  static med  static max  drive med  drive p75  drive max
	// Verizon   DL   561.1       1079.5      28.4       46.7       1702.5
	// Verizon   UL   49.9        68.7        7.6        10.9       183.6
	// T-Mobile  DL   495.5       925.4       55.3       112.7      492.1
	// T-Mobile  UL   112.5       146.8       13.8       24.4       126.8
	// AT&T      DL   339.6       546.3       44.6       86.2       755.5
	// AT&T      UL   29.2        52.2        12.1       19.3       54.5
	// Figure 3: static vs driving RTT (ms)
	// operator  static med  static max  drive med  drive p90  drive max
	// Verizon   32.9        199.9       49.5       153.5      3000.0
	// T-Mobile  64.9        119.2       66.3       98.7       3000.0
	// AT&T      60.4        99.9        67.5       102.3      3000.0
	// Figure 3: driving samples below 5 Mbps
	// direction  fraction
	// DL         15%
	// UL         35%
	// Table 2: Pearson correlation of throughput with KPIs
	// operator  dir  RSRP  MCS    CA    BLER   Speed  HO     n
	// Verizon   DL   0.03  -0.28  0.74  -0.17  -0.22  -0.01  2580
	// Verizon   UL   0.09  -0.20  0.34  -0.17  -0.16  0.01   2580
	// T-Mobile  DL   0.36  0.31   0.34  -0.29  -0.28  -0.03  2580
	// T-Mobile  UL   0.27  0.28   0.25  -0.21  -0.09  -0.04  2580
	// AT&T      DL   0.16  0.12   0.46  -0.18  -0.11  -0.00  2580
	// AT&T      UL   0.11  0.17   0.03  -0.40  -0.30  -0.05  2580
}

// Example_multipath quantifies the paper's recommendation §8-(2),
// multipath over several carriers. It replays the dataset's concurrent
// 500 ms samples and compares staying on one carrier with an oracle
// that picks the best carrier each window and an MPTCP-style bond that
// sums all three. Then it runs an actual bond (one CUBIC subflow per
// carrier, with a head-of-line reassembly penalty) over three live UEs,
// against a single-carrier flow under the same conditions.
func Example_multipath() {
	db := campaign(core.Config{
		Seed:        7,
		Limit:       150 * unit.Kilometer,
		SkipApps:    true,
		SkipStatic:  true,
		SkipPassive: true,
	})
	for _, dir := range radio.Directions() {
		// Throughput samples by 500 ms window; a window counts when all
		// three carriers were measured in it. Every figure below is a
		// median or a count, so the windows' order does not matter.
		type window struct {
			mbps [radio.NumOperators]float64
			ops  int // bit op is set once op was measured
		}
		windows := map[time.Time]*window{}
		for _, s := range db.Throughput {
			if s.Dir != dir || s.Static {
				continue
			}
			key := s.Time.Truncate(500 * time.Millisecond)
			w := windows[key]
			if w == nil {
				w = &window{}
				windows[key] = w
			}
			w.mbps[s.Op] = s.Mbps
			w.ops |= 1 << s.Op
		}
		var single [radio.NumOperators][]float64
		var best, bonded []float64
		rescued := 0
		for _, w := range windows {
			if w.ops != 1<<radio.NumOperators-1 {
				continue
			}
			lo, hi, sum := w.mbps[0], w.mbps[0], 0.0
			for op, v := range w.mbps {
				single[op] = append(single[op], v)
				lo, hi, sum = min(lo, v), max(hi, v), sum+v
			}
			best = append(best, hi)
			bonded = append(bonded, sum)
			if lo < 5 && hi >= 5 {
				rescued++
			}
		}
		fmt.Printf("%s: %d concurrent windows\n", dir, len(best))
		for _, op := range radio.Operators() {
			fmt.Printf("  single %-9s median %6.1f Mbps\n", op, median(single[op]))
		}
		fmt.Printf("  best-of-3 oracle median %6.1f Mbps\n", median(best))
		fmt.Printf("  3-way aggregate  median %6.1f Mbps\n", median(bonded))
		fmt.Printf("  one carrier <5 Mbps, another not: %.0f%% of windows\n", 100*float64(rescued)/float64(len(best)))
	}

	route := geo.DefaultRoute()
	rng := simrand.New(21)
	ops := radio.Operators()
	ues := make([]*ran.UE, len(ops))
	for i, op := range ops {
		ues[i] = ran.NewUE(ran.UEConfig{Op: op, Map: deploy.NewMap(op, route, rng)}, rng.Fork("ue"+op.Short()))
	}
	drive := geo.NewDrive(route, geo.DefaultDriveConfig(), rng)
	for _, u := range ues {
		u.SetTraffic(deploy.HeavyDL, drive.State().Time, drive.State().Waypoint)
	}
	bond := transport.NewBond(len(ops), rng.Fork("bond"), transport.Options{})
	single := transport.NewFlow(rng.Fork("single"))
	const tick, span = 50 * time.Millisecond, 10 * time.Minute
	var bondBytes, singleBytes unit.Bytes
	caps := make([]unit.BitRate, len(ops))
	rtts := make([]time.Duration, len(ops))
	loss := make([]float64, len(ops))
	for elapsed := time.Duration(0); elapsed < span; elapsed += tick {
		ds := drive.Step(tick)
		for i, u := range ues {
			st := u.Step(ds.Time, ds.Waypoint, ds.Speed.MPH(), tick)
			caps[i], rtts[i], loss[i] = st.CapacityDL, 60*time.Millisecond, st.BLER
		}
		bondBytes += bond.Step(tick, caps, rtts, loss).Delivered
		singleBytes += single.Step(tick, caps[0], rtts[0], loss[0]).Delivered
	}
	fmt.Printf("bond over 10 driven minutes: %s alone %.1f Mbps, 3-way bond %.1f Mbps\n",
		ops[0], singleBytes.RateOver(span).Mbps(), bondBytes.RateOver(span).Mbps())
	// Output:
	// DL: 4860 concurrent windows
	//   single Verizon   median   26.5 Mbps
	//   single T-Mobile  median   31.2 Mbps
	//   single AT&T      median   31.3 Mbps
	//   best-of-3 oracle median   77.4 Mbps
	//   3-way aggregate  median  124.9 Mbps
	//   one carrier <5 Mbps, another not: 41% of windows
	// UL: 4860 concurrent windows
	//   single Verizon   median    8.0 Mbps
	//   single T-Mobile  median    9.4 Mbps
	//   single AT&T      median    9.3 Mbps
	//   best-of-3 oracle median   19.9 Mbps
	//   3-way aggregate  median   30.7 Mbps
	//   one carrier <5 Mbps, another not: 72% of windows
	// bond over 10 driven minutes: Verizon alone 163.1 Mbps, 3-way bond 172.9 Mbps
}

package core

import (
	"fmt"
	"time"

	"github.com/nuwins/cellwheels/internal/apps/gaming"
	"github.com/nuwins/cellwheels/internal/apps/offload"
	"github.com/nuwins/cellwheels/internal/apps/video"
	"github.com/nuwins/cellwheels/internal/cloud"
	"github.com/nuwins/cellwheels/internal/dataset"
	"github.com/nuwins/cellwheels/internal/deploy"
	"github.com/nuwins/cellwheels/internal/geo"
	"github.com/nuwins/cellwheels/internal/logsync"
	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/ran"
	"github.com/nuwins/cellwheels/internal/simrand"
	"github.com/nuwins/cellwheels/internal/transport"
	"github.com/nuwins/cellwheels/internal/unit"
	"github.com/nuwins/cellwheels/internal/xcal"
)

// phone is one operator's active test handset: a UE, an XCAL recorder,
// and the round-robin rotation state. All of it is private to one lane.
type phone struct {
	op    radio.Operator
	ue    *ran.UE
	rec   *xcal.Recorder
	rng   *simrand.Source
	fleet []cloud.Server

	// rotation state
	specs   []testSpec
	specIdx int
	gapLeft time.Duration

	// current test state
	inTest    bool
	spec      testSpec
	testLeft  time.Duration
	testStart time.Time
	static    bool
	server    cloud.Server
	appLog    logsync.AppLog

	flow      *transport.Flow
	pinger    *transport.Pinger
	offRun    *offload.Runner
	vidRun    *video.Session
	gameRun   *gaming.Session
	prevApp   unit.Bytes
	hoSeen    int
	testTime  time.Duration // cumulative test runtime (Table 1)
	testsDone int

	// norm normalises each capture when its test ends, and archive, when
	// set, receives the raw capture first (Config.Archive); archiveErr
	// is the first error it returned, after which it is not called.
	norm       *logsync.Normalizer
	archive    func(*xcal.File) error
	archiveErr error

	captures []logsync.Capture
	apps     []logsync.AppLog

	bytesRx unit.Bytes
	bytesTx unit.Bytes
}

// trafficFor maps a test kind to the offered-traffic profile the
// elevation policy sees.
func trafficFor(k dataset.TestKind) deploy.Traffic {
	switch k {
	case dataset.ThroughputDL, dataset.AppVideo, dataset.AppGaming:
		return deploy.HeavyDL
	case dataset.ThroughputUL, dataset.AppAR, dataset.AppCAV:
		return deploy.HeavyUL
	default: // RTT: ICMP only
		return deploy.Idle
	}
}

// stampFor picks the timestamp format each app's log uses — the paper's
// apps were inconsistent, which is exactly what logsync must handle.
func stampFor(k dataset.TestKind) logsync.StampKind {
	switch k {
	case dataset.RTTTest, dataset.AppVideo:
		return logsync.StampLocalNaive
	default:
		return logsync.StampUTC
	}
}

// tick advances the phone one simulation step.
func (p *phone) tick(cfg *Config, ts *geo.TickState) {
	if p.inTest {
		p.tickTest(ts)
		return
	}
	ds := &ts.DriveState
	// Idle gap between tests: the UE stays attached under idle traffic.
	p.ue.Step(ds.Time, ds.Waypoint, ds.Speed.MPH(), Tick)
	p.gapLeft -= Tick
	if p.gapLeft <= 0 {
		p.startTest(cfg, ds)
	}
}

// startTest opens the next rotation slot.
//
//lint:cold — runs once per test (every ~30 s simulated), not per tick; setup allocations are amortized
func (p *phone) startTest(cfg *Config, ds *geo.DriveState) {
	p.spec = p.specs[p.specIdx]
	p.specIdx = (p.specIdx + 1) % len(p.specs)

	kind := p.spec.kind
	role := cloud.General
	if kind == dataset.AppGaming || kind == dataset.AppAR || kind == dataset.AppCAV {
		role = cloud.GPU
	}
	p.server = cloud.Select(p.fleet, ds.Waypoint, p.op, role)

	p.ue.SetTraffic(trafficFor(kind), ds.Time, ds.Waypoint)

	p.inTest = true
	p.testLeft = cfg.testDuration(kind)
	p.testStart = ds.Time
	p.prevApp = 0
	p.flow = nil
	p.pinger = nil
	p.offRun = nil
	p.vidRun = nil
	p.gameRun = nil

	// Each test gets its own independent random stream; reusing one
	// stream name would replay the same loss pattern in every test.
	testRNG := p.rng.Fork(fmt.Sprintf("test/%d", p.testsDone+len(p.apps)))

	switch kind {
	case dataset.ThroughputDL, dataset.ThroughputUL:
		p.flow = transport.NewFlowOptions(testRNG.Fork("flow"), cfg.Transport)
	case dataset.RTTTest:
		p.pinger = transport.NewPinger(testRNG.Fork("ping"))
	case dataset.AppAR:
		p.offRun = offload.NewRunner(offload.ARConfig(), p.spec.compressed, testRNG.Fork("ar"))
	case dataset.AppCAV:
		p.offRun = offload.NewRunner(offload.CAVConfig(), p.spec.compressed, testRNG.Fork("cav"))
	case dataset.AppVideo:
		vcfg := video.DefaultConfig()
		vcfg.RunDuration = p.testLeft
		p.vidRun = video.NewSession(vcfg)
	case dataset.AppGaming:
		gcfg := gaming.DefaultConfig()
		gcfg.RunDuration = p.testLeft
		p.gameRun = gaming.NewSession(gcfg, testRNG.Fork("game"))
	}

	// App-side log skeleton. Its stamp format varies by kind.
	p.appLog = logsync.AppLog{
		Op:          p.op.Short(),
		Kind:        logsync.LabelOf(kind),
		Server:      p.server.Name,
		Edge:        p.server.Kind == cloud.Edge,
		Static:      p.static,
		Compressed:  p.spec.compressed,
		Stamp:       stampFor(kind),
		DurationSec: cfg.testDuration(kind).Seconds(),
	}
	switch p.appLog.Stamp {
	case logsync.StampUTC:
		p.appLog.StartStamp = ds.Time.UTC().Format(time.RFC3339Nano)
	default:
		z := ds.Waypoint.Timezone
		p.appLog.StartStamp = ds.Time.In(z.Location()).Format(xcal.LoggerFormat)
		p.appLog.Zone = z.String()
	}

	p.rec.StartFile(p.appLog.Kind, ds.Time, ds.Waypoint.Timezone)
	// Only handovers from the test window onward belong in this file.
	p.hoSeen = p.ue.HandoverCount()
}

// tickTest advances the active test by one tick.
func (p *phone) tickTest(ts *geo.TickState) {
	ds := &ts.DriveState
	st := p.ue.Step(ds.Time, ds.Waypoint, ds.Speed.MPH(), Tick)

	// Forward any new signaling events to the recorder.
	for _, ev := range p.ue.HandoversFrom(p.hoSeen) {
		p.rec.LogHandover(ev)
	}
	p.hoSeen = p.ue.HandoverCount()

	baseRTT := cloud.BaseRTT(p.server, ts.Point) +
		unit.DurationFromMS(radio.BaseRadioRTT(st.Tech))

	var delivered unit.Bytes
	switch p.spec.kind {
	case dataset.ThroughputDL:
		res := p.flow.Step(Tick, st.CapacityDL, baseRTT, st.BLER)
		delivered = res.Delivered
		p.bytesRx += delivered
	case dataset.ThroughputUL:
		res := p.flow.Step(Tick, st.CapacityUL, baseRTT, st.BLER)
		delivered = res.Delivered
		p.bytesTx += delivered
	case dataset.RTTTest:
		for _, s := range p.pinger.Step(Tick, st.CapacityDL, baseRTT, st.Load, st.InHandover) {
			offset := ds.Time.Sub(p.testStart)
			p.appLog.RTTs = append(p.appLog.RTTs, logsync.RTTEntry{
				OffsetMS: unit.Milliseconds(offset),
				RTTMS:    unit.Milliseconds(s.RTT),
				Lost:     s.Lost,
			})
		}
	case dataset.AppAR, dataset.AppCAV:
		p.offRun.Step(Tick, st.CapacityUL, baseRTT)
		sent := p.offRun.BytesSent()
		delivered = sent - p.prevApp
		p.prevApp = sent
		p.bytesTx += delivered
	case dataset.AppVideo:
		p.vidRun.Step(Tick, st.CapacityDL)
		got := p.vidRun.BytesReceived()
		delivered = got - p.prevApp
		p.prevApp = got
		p.bytesRx += delivered
	case dataset.AppGaming:
		p.gameRun.Step(Tick, st.CapacityDL, baseRTT)
		got := p.gameRun.BytesReceived()
		delivered = got - p.prevApp
		p.prevApp = got
		p.bytesRx += delivered
	}

	p.rec.Observe(Tick, st, ds.Waypoint, ds.Speed.MPH(), delivered)

	p.testLeft -= Tick
	p.testTime += Tick
	if p.testLeft <= 0 {
		p.finishTest(ds)
	}
}

// finishTest closes the open test and queues its logs. The raw capture
// goes to the archive sink, if any, and is normalised here, so it dies
// with its test.
//
//lint:cold — runs once per test, not per tick; result assembly, normalisation and log queuing are amortized
func (p *phone) finishTest(ds *geo.DriveState) {
	switch p.spec.kind {
	case dataset.AppAR, dataset.AppCAV:
		if p.offRun != nil {
			res := p.offRun.Result()
			p.appLog.Metrics = map[string]float64{
				"e2e_ms": res.MeanE2EMS,
				"fps":    res.OffloadFPS,
				"map":    res.MAP,
			}
		}
	case dataset.AppVideo:
		if p.vidRun != nil {
			res := p.vidRun.Result()
			p.appLog.Metrics = map[string]float64{
				"qoe":      res.AvgQoE,
				"bitrate":  res.AvgBitrate,
				"rebuffer": res.RebufferFrac,
			}
		}
	case dataset.AppGaming:
		if p.gameRun != nil {
			res := p.gameRun.Result()
			p.appLog.Metrics = map[string]float64{
				"send_bitrate":   res.MedianSendBitrate,
				"net_latency_ms": res.MeanNetLatencyMS,
				"frame_drop":     res.FrameDropFrac,
			}
		}
	}
	f := p.rec.CloseFile()
	if p.archive != nil && p.archiveErr == nil {
		p.archiveErr = p.archive(&f)
	}
	p.captures = append(p.captures, p.norm.Capture(&f))
	p.apps = append(p.apps, p.appLog)
	p.inTest = false
	p.testsDone++
	p.gapLeft = testGap
	// Between tests the phone goes idle; stickiness may retain the tech.
	p.ue.SetTraffic(deploy.Idle, ds.Time, ds.Waypoint)
}

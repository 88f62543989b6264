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
	// wire names the cloud sites whose RTT each tick carries, shared by
	// every lane (see wireSites).
	wire *wireSites

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
	// wireMask is wire.mask(&server): the sites whose shared RTT is the
	// server's own.
	wireMask uint8
	appLog   logsync.AppLog

	flow      *transport.Flow
	pinger    *transport.Pinger
	offRun    *offload.Runner
	vidRun    *video.Session
	gameRun   *gaming.Session
	prevApp   unit.Bytes
	hoSeen    int
	testTime  time.Duration // cumulative test runtime (Table 1)
	testsDone int

	// norm normalises each capture when its test ends.
	norm *logsync.Normalizer

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

// tick advances the phone one simulation step. w is the tick's shared
// wireline RTT.
func (p *phone) tick(cfg *Config, ts *geo.TickState, w wireRTT) {
	if p.inTest {
		p.tickTest(ts, w)
		return
	}
	ds := &ts.DriveState
	// Idle gap between tests: the UE stays attached under idle traffic.
	p.ue.StepDrive(ds, Tick)
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
	p.pickServer(ds, role)

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

	// App-side log skeleton. The RTT and video apps log their start in
	// whole seconds of local time; the others stamp the exact instant.
	start := ds.Time.UTC()
	if kind == dataset.RTTTest || kind == dataset.AppVideo {
		start = start.Truncate(time.Second)
	}
	p.appLog = logsync.AppLog{
		Op:          p.op,
		Kind:        kind,
		Server:      p.server.Name,
		Edge:        p.server.Kind == cloud.Edge,
		Static:      p.static,
		Compressed:  p.spec.compressed,
		Start:       start,
		DurationSec: cfg.testDuration(kind).Seconds(),
	}

	p.rec.StartFile(logsync.LabelOf(kind), ds.Time, ds.Waypoint.Timezone)
	// Only handovers from the test window onward belong in this file.
	p.hoSeen = p.ue.HandoverCount()
}

// pickServer selects the test's server by §3's rule at the test's start
// (cloud.Select) and notes which shared RTT is its own.
func (p *phone) pickServer(ds *geo.DriveState, role cloud.Role) {
	p.server = cloud.Select(p.fleet, ds.Waypoint, p.op, role)
	p.wireMask = p.wire.mask(&p.server)
}

// wireRTT is the wireline RTT from the tick's point to the test's
// server: the tick's shared value when the server is at the site it was
// priced for, which a test that crossed into another region since it
// picked its server is not, and its own cloud.BaseRTT otherwise.
func (p *phone) wireRTT(ts *geo.TickState, w wireRTT) time.Duration {
	if w.site&p.wireMask != 0 {
		return w.rtt
	}
	return cloud.BaseRTT(&p.server, ts.Point)
}

// tickTest advances the active test by one tick.
func (p *phone) tickTest(ts *geo.TickState, w wireRTT) {
	ds := &ts.DriveState
	st := p.ue.StepDrive(ds, Tick)

	// Forward any new signaling events to the recorder.
	for _, ev := range p.ue.HandoversFrom(p.hoSeen) {
		p.rec.LogHandover(ev)
	}
	p.hoSeen = p.ue.HandoverCount()

	baseRTT := p.wireRTT(ts, w) + unit.DurationFromMS(radio.BaseRadioRTT(st.Tech))

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

	p.rec.ObserveDrive(Tick, st, ds, delivered)

	p.testLeft -= Tick
	p.testTime += Tick
	if p.testLeft <= 0 {
		p.finishTest(ds)
	}
}

// finishTest closes the open test and queues its logs. The capture is
// normalised here, so its raw rows die with the test.
//
//lint:cold — runs once per test, not per tick; result assembly, normalisation and log queuing are amortized
func (p *phone) finishTest(ds *geo.DriveState) {
	r := &p.appLog.Result
	switch p.spec.kind {
	case dataset.AppAR, dataset.AppCAV:
		if p.offRun != nil {
			res := p.offRun.Result()
			r.E2EMS, r.OffloadFPS, r.MAP = res.MeanE2EMS, res.OffloadFPS, res.MAP
		}
	case dataset.AppVideo:
		if p.vidRun != nil {
			res := p.vidRun.Result()
			r.QoE, r.AvgBitrate, r.RebufferFrac = res.AvgQoE, res.AvgBitrate, res.RebufferFrac
		}
	case dataset.AppGaming:
		if p.gameRun != nil {
			res := p.gameRun.Result()
			r.SendBitrate, r.NetLatencyMS, r.FrameDropFrac = res.MedianSendBitrate, res.MeanNetLatencyMS, res.FrameDropFrac
		}
	}
	f := p.rec.CloseFile()
	p.captures = append(p.captures, p.norm.Capture(&f))
	p.apps = append(p.apps, p.appLog)
	p.inTest = false
	p.testsDone++
	p.gapLeft = testGap
	// Between tests the phone goes idle; stickiness may retain the tech.
	p.ue.SetTraffic(deploy.Idle, ds.Time, ds.Waypoint)
}

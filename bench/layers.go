package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"github.com/nuwins/cellwheels"
	"github.com/nuwins/cellwheels/internal/core"
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

// traced is the traced run: the workload's representative campaign
// through the engine's steps one at a time, a replay of the per-tick
// layers over its timeline, the dataset and analysis layers on its
// output, and one op each of the crowd, fleet-sync and serve paths.
// Every part records spans; perLayerMetrics turns them into metrics.
func traced(w workload, e *env) (attempted, failed int, errs []error) {
	parts := []struct {
		name string
		run  func(parent int) error
	}{
		{"pass.campaign", func(p int) error { return layerPass(e, w.campaign(e), p) }},
		{"pass.crowd", func(p int) error { return crowdOverhead(e, p) }},
		{"pass.fleet", func(p int) error {
			check, err := pushFleet(e, fleetScenario(e, opSeed(e.seed, 1), []string{"0", "10000"}, e.sz.fleetReplicates), p)
			if err != nil {
				return err
			}
			return check()
		}},
		{"pass.serve", func(p int) error {
			d, err := startDaemon(e)
			if err != nil {
				return err
			}
			check, err := d.session(e, jobSeed(e.seed, 0, 0), p)
			if err == nil {
				err = check()
			}
			snap := d.s.Snapshot()
			e.tr.add("serve.timeline_hits", float64(snap.Counters["serve/timeline/hits"]))
			e.tr.add("serve.timeline_misses", float64(snap.Counters["serve/timeline/misses"]))
			return errors.Join(err, d.stop(e.ctx))
		}},
	}
	for _, part := range parts {
		id := e.tr.begin(part.name, -1)
		err := part.run(id)
		e.tr.end(id)
		attempted++
		if err != nil {
			failed++
			errs = append(errs, fmt.Errorf("%s: %w", part.name, err))
		}
	}
	return attempted, failed, errs
}

// allocMB is how many MB fn allocated.
func allocMB(fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / 1e6
}

// layerPass runs cfg's campaign through the engine's public steps with a
// span around each, then the per-tick replay, then the dataset and report
// layers on the merged dataset.
func layerPass(e *env, cfg core.Config, parent int) error {
	tr := e.tr
	sp := tr.begin("geo.timeline_build", parent)
	tl := core.PrecomputeTimeline(cfg)
	tr.end(sp)

	route := geo.DefaultRoute()
	for _, op := range radio.Operators() {
		sp := tr.begin("deploy.map_build", parent)
		deploy.NewMap(op, route, simrand.New(cfg.Seed))
		tr.end(sp)
	}

	cfg.SharedTimeline = tl
	sp = tr.begin("core.campaign_new", parent)
	c := core.NewCampaign(cfg)
	tr.end(sp)

	sp = tr.begin("core.lanes", parent)
	raw := c.Run()
	tr.end(sp)

	sp = tr.begin("xcal.drm_encode", parent)
	for _, f := range raw.Files {
		if err := f.WriteDRM(io.Discard); err != nil {
			return err
		}
	}
	tr.end(sp)

	var db *dataset.DB
	var rep logsync.Report
	var err error
	tr.add("logsync.merge_alloc_mb", allocMB(func() {
		sp := tr.begin("logsync.merge", parent)
		db, rep, err = c.Merge(raw)
		tr.end(sp)
	}))
	if err != nil {
		return err
	}
	if n := len(rep.UnmatchedFiles); n > 0 {
		return fmt.Errorf("%d XCAL files unmatched after merge", n)
	}

	op := radio.Operators()[0]
	replay(e, tl, c.Maps()[op], op, parent)
	return datasetPass(e, db, parent)
}

// datasetPass encodes and decodes the dataset, times a filtered query,
// and renders each report section of the decoded study. The decoded
// study's full report must equal the engine's report of the original.
func datasetPass(e *env, db *dataset.DB, parent int) error {
	tr := e.tr
	tr.add("dataset.rows", float64(len(db.Tests)+len(db.Throughput)+len(db.RTT)+len(db.Handovers)+len(db.AppRuns)+len(db.Passive)))
	var buf bytes.Buffer
	sp := tr.begin("dataset.encode", parent)
	err := db.WriteJSON(&buf)
	tr.end(sp)
	if err != nil {
		return err
	}
	tr.add("dataset.json_mb", float64(buf.Len())/1e6)
	dsSum := sha256.Sum256(buf.Bytes())

	sp = tr.begin("dataset.decode", parent)
	study, err := cellwheels.Load(&buf)
	tr.end(sp)
	if err != nil {
		return err
	}

	tr.add("dataset.where_alloc_mb", allocMB(func() {
		for _, op := range radio.Operators() {
			for _, dir := range radio.Directions() {
				sp := tr.begin("dataset.where", parent)
				db.ThroughputWhere(func(s dataset.ThroughputSample) bool {
					return s.Op == op && s.Dir == dir && !s.Static
				})
				tr.end(sp)
			}
		}
	}))

	for _, id := range cellwheels.SectionIDs() {
		sp := tr.begin("report."+id, parent)
		_, err := study.Section(id)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	var report string
	tr.add("report.alloc_mb", allocMB(func() {
		sp := tr.begin("report.full", parent)
		report = study.Report()
		tr.end(sp)
	}))
	report = comparable(report)
	want := comparable(core.Report(db, core.FigureCoverageMaps(db, geo.DefaultRoute(), 100)))
	fmt.Fprintf(e.log, "digest seed=%d dataset_sha256=%x report_sha256=%x\n", e.seed, dsSum, sha256.Sum256([]byte(report)))
	if report != want {
		return errors.New("report of the decoded dataset differs from the engine's")
	}
	return nil
}

// replayBlock is how many ticks the replay runs through one layer before
// the next; timing whole blocks keeps the cost of reading the clock
// negligible.
const replayBlock = 4096

// phase kinds of the replay's stand-in for the test rotation.
const (
	phaseGap = iota
	phaseDL
	phaseUL
	phasePing
)

// rotation cycles the traffic the way the campaign's rotation does: a
// downlink test, an uplink test and an RTT test, 5 s gaps between them,
// in 50 ms ticks.
var rotation = []struct {
	kind    int
	traffic deploy.Traffic
	dir     radio.Direction
	ticks   int
}{
	{phaseDL, deploy.HeavyDL, radio.Downlink, 600},
	{phaseGap, deploy.Idle, radio.Downlink, 100},
	{phaseUL, deploy.HeavyUL, radio.Uplink, 600},
	{phaseGap, deploy.Idle, radio.Downlink, 100},
	{phasePing, deploy.Idle, radio.Downlink, 400},
	{phaseGap, deploy.Idle, radio.Downlink, 100},
}

// tickPhase is the rotation phase of one replayed tick.
type tickPhase struct {
	kind        int
	dir         radio.Direction
	first, last bool
}

// replay steps one operator's per-tick layers over the timeline, a block
// at a time: the cursor (geo), then the UE (ran), then radio.Capacity on
// the resulting link states (radio, a part of ran's step), then the flow
// or pinger of the current phase (transport), then the XCAL recorder and
// a passive handover logger (xcal; the logger steps its own UE).
func replay(e *env, tl *geo.Timeline, m *deploy.Map, op radio.Operator, parent int) {
	tr := e.tr
	rng := simrand.New(e.seed).Fork("bench-replay")
	ueCfg := ran.UEConfig{Op: op, Map: m}
	u := ran.NewUE(ueCfg, rng.Fork("active"))
	logger := xcal.NewHandoverLogger(ueCfg, rng)
	rec := xcal.NewRecorder(op)
	cur := tl.Cursor()

	ticks := make([]geo.TickState, replayBlock)
	links := make([]ran.LinkState, replayBlock)
	phases := make([]tickPhase, replayBlock)
	delivered := make([]unit.Bytes, replayBlock)
	var flow *transport.Flow
	var pinger *transport.Pinger
	var capacity float64
	var total, flowSteps, pingSteps, observes int
	slot, inSlot := 0, 0
	for {
		sp := tr.begin("geo.cursor_replay", parent)
		n := 0
		for n < replayBlock {
			ts, ok := cur.Next()
			if !ok {
				break
			}
			ticks[n] = ts
			n++
		}
		tr.end(sp)
		if n == 0 {
			break
		}

		sp = tr.begin("ran.step", parent)
		for i := 0; i < n; i++ {
			r := rotation[slot]
			phases[i] = tickPhase{kind: r.kind, dir: r.dir, first: inSlot == 0, last: inSlot == r.ticks-1}
			ds := ticks[i].DriveState
			if inSlot == 0 {
				u.SetTraffic(r.traffic, ds.Time, ds.Waypoint)
			}
			links[i] = u.Step(ds.Time, ds.Waypoint, ds.Speed.MPH(), core.Tick)
			if inSlot++; inSlot == r.ticks {
				slot, inSlot = (slot+1)%len(rotation), 0
			}
		}
		tr.end(sp)

		sp = tr.begin("radio.capacity", parent)
		for i := 0; i < n; i++ {
			l, dir := links[i], phases[i].dir
			capacity += float64(radio.Capacity(op, l.Tech, dir, l.CC(dir), l.SINR, l.BLER, l.Load))
		}
		tr.end(sp)

		sp = tr.begin("transport.flow_step", parent)
		for i := 0; i < n; i++ {
			l, ph := links[i], phases[i]
			delivered[i] = 0
			if ph.kind != phaseDL && ph.kind != phaseUL {
				continue
			}
			if ph.first {
				flow = transport.NewFlow(rng.Fork(fmt.Sprintf("flow/%d", total+i)))
			}
			delivered[i] = flow.Step(core.Tick, l.Capacity(ph.dir), baseRTT(l), l.BLER).Delivered
			flowSteps++
		}
		tr.end(sp)

		sp = tr.begin("transport.ping_step", parent)
		for i := 0; i < n; i++ {
			l, ph := links[i], phases[i]
			if ph.kind != phasePing {
				continue
			}
			if ph.first {
				pinger = transport.NewPinger(rng.Fork(fmt.Sprintf("ping/%d", total+i)))
			}
			pinger.Step(core.Tick, l.CapacityDL, baseRTT(l), l.Load, l.InHandover)
			pingSteps++
		}
		tr.end(sp)

		sp = tr.begin("xcal.observe", parent)
		for i := 0; i < n; i++ {
			ph := phases[i]
			if ph.kind == phaseGap {
				continue
			}
			ds := ticks[i].DriveState
			if ph.first {
				rec.StartFile("bench", ds.Time, ds.Waypoint.Timezone)
			}
			rec.Observe(core.Tick, links[i], ds.Waypoint, ds.Speed.MPH(), delivered[i])
			observes++
			if ph.last {
				rec.CloseFile()
			}
		}
		tr.end(sp)

		sp = tr.begin("xcal.logger_step", parent)
		for i := 0; i < n; i++ {
			ds := ticks[i].DriveState
			logger.Step(ds.Time, ds.Waypoint, ds.Speed.MPH(), core.Tick)
		}
		tr.end(sp)
		total += n
	}
	tr.add("geo.ticks", float64(total))
	tr.add("ran.handovers", float64(u.HandoverCount()))
	tr.add("transport.flow_steps", float64(flowSteps))
	tr.add("transport.ping_steps", float64(pingSteps))
	tr.add("xcal.observes", float64(observes))
	runtime.KeepAlive(capacity) // keeps the radio.Capacity calls from being optimised away
}

// baseRTT is the replay's round-trip floor: a 30 ms path to the server
// plus the radio's own delay.
func baseRTT(l ran.LinkState) time.Duration {
	return 30*time.Millisecond + unit.DurationFromMS(radio.BaseRadioRTT(l.Tech))
}

// crowdOverhead runs one fleet-sync run with its 10,000-UE crowd and the
// same run without it.
func crowdOverhead(e *env, parent int) error {
	cfg := campaignConfig(e, e.seed, e.sz.fleetKm)
	cfg.SkipApps = true
	cfg.LoadModel = cellwheels.LoadModelDemand
	for _, run := range []struct {
		name  string
		crowd int
	}{{"ue.base_run", 0}, {"ue.crowd_run", 10000}} {
		cfg.CrowdSize = run.crowd
		sp := e.tr.begin(run.name, parent)
		_, err := cellwheels.Run(cfg)
		e.tr.end(sp)
		if err != nil {
			return err
		}
	}
	return nil
}

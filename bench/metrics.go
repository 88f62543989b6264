package main

import (
	"github.com/nuwins/cellwheels"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric and its unit; BENCHMARK.json lists the same
// names with the same units, plus each one's direction and bound.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run. Every workload reports all
// of them; what an op is depends on the workload (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
}

// endToEndMetrics turns a measurement into the end-to-end metrics.
func endToEndMetrics(m measurement, peakMB float64) map[string]metric {
	values := map[string]float64{
		"setup_s":     median(m.setup),
		"op_p50_s":    orZero(median(m.latency)),
		"cpu_s":       per(m.cpu, float64(m.attempted)),
		"peak_rss_mb": peakMB,
	}
	out := map[string]metric{}
	for _, d := range endToEnd {
		out[d.name] = metric{values[d.name], d.unit}
	}
	return out
}

// perLayer are the metrics of a traced run.
func perLayer() []metricDef {
	defs := []metricDef{
		{"geo.timeline_build_s", "s"},
		{"geo.cursor_replay_s", "s"},
		{"geo.ns_per_tick", "ns"},
		{"geo.ticks", "count"},
		{"deploy.map_build_ms", "ms"},
		{"core.campaign_new_s", "s"},
		{"core.lanes_s", "s"},
		{"ran.step_ns", "ns"},
		{"ran.handovers", "count"},
		{"radio.capacity_ns", "ns"},
		{"transport.flow_step_ns", "ns"},
		{"transport.ping_step_ns", "ns"},
		{"xcal.observe_ns", "ns"},
		{"xcal.logger_step_ns", "ns"},
		{"xcal.drm_encode_s", "s"},
		{"logsync.merge_s", "s"},
		{"logsync.merge_alloc_mb", "MB"},
		{"dataset.encode_s", "s"},
		{"dataset.decode_s", "s"},
		{"dataset.json_mb", "MB"},
		{"dataset.rows", "count"},
		{"dataset.where_ms", "ms"},
		{"dataset.where_alloc_mb", "MB"},
	}
	for _, id := range cellwheels.SectionIDs() {
		defs = append(defs, metricDef{"report." + id + "_ms", "ms"})
	}
	return append(defs,
		metricDef{"report.alloc_mb", "MB"},
		metricDef{"ue.crowd_overhead_s", "s"},
		metricDef{"fleetsync.push_p50_ms", "ms"},
		metricDef{"fleetsync.bytes", "bytes"},
		metricDef{"serve.submit_ms", "ms"},
		metricDef{"serve.queue_wait_s", "s"},
		metricDef{"serve.artifact_get_ms", "ms"},
		metricDef{"serve.dedup_ms", "ms"},
		metricDef{"serve.cache_hit_frac", "ratio"},
		metricDef{"trace.overhead_frac", "ratio"},
	)
}

// perLayerMetrics derives the per-layer metrics from a traced run's spans
// and counts; wall is the traced run's length in seconds.
func perLayerMetrics(tr *tracer, wall float64) map[string]metric {
	spans := tr.snapshot()
	times := selfTimes(spans)
	total := func(name string) float64 {
		if lt := times[name]; lt != nil {
			return lt.Total
		}
		return 0
	}
	calls := func(name string) float64 {
		if lt := times[name]; lt != nil {
			return float64(lt.Count)
		}
		return 0
	}
	p50 := func(name string) float64 {
		var ds []float64
		for _, s := range spans {
			if s.Name == name && s.End >= s.Start {
				ds = append(ds, float64(s.End-s.Start)/1e9)
			}
		}
		return orZero(median(ds))
	}
	ticks := tr.count("geo.ticks")
	hits, misses := tr.count("serve.timeline_hits"), tr.count("serve.timeline_misses")
	values := map[string]float64{
		"geo.timeline_build_s":   total("geo.timeline_build"),
		"geo.cursor_replay_s":    total("geo.cursor_replay"),
		"geo.ns_per_tick":        per(total("geo.cursor_replay")*1e9, ticks),
		"geo.ticks":              ticks,
		"deploy.map_build_ms":    per(total("deploy.map_build")*1e3, calls("deploy.map_build")),
		"core.campaign_new_s":    total("core.campaign_new"),
		"core.lanes_s":           total("core.lanes"),
		"ran.step_ns":            per(total("ran.step")*1e9, ticks),
		"ran.handovers":          tr.count("ran.handovers"),
		"radio.capacity_ns":      per(total("radio.capacity")*1e9, ticks),
		"transport.flow_step_ns": per(total("transport.flow_step")*1e9, tr.count("transport.flow_steps")),
		"transport.ping_step_ns": per(total("transport.ping_step")*1e9, tr.count("transport.ping_steps")),
		"xcal.observe_ns":        per(total("xcal.observe")*1e9, tr.count("xcal.observes")),
		"xcal.logger_step_ns":    per(total("xcal.logger_step")*1e9, ticks),
		"xcal.drm_encode_s":      total("xcal.drm_encode"),
		"logsync.merge_s":        total("logsync.merge"),
		"logsync.merge_alloc_mb": tr.count("logsync.merge_alloc_mb"),
		"dataset.encode_s":       total("dataset.encode"),
		"dataset.decode_s":       total("dataset.decode"),
		"dataset.json_mb":        tr.count("dataset.json_mb"),
		"dataset.rows":           tr.count("dataset.rows"),
		"dataset.where_ms":       per(total("dataset.where")*1e3, calls("dataset.where")),
		"dataset.where_alloc_mb": per(tr.count("dataset.where_alloc_mb"), calls("dataset.where")),
		"report.alloc_mb":        tr.count("report.alloc_mb"),
		"ue.crowd_overhead_s":    total("ue.crowd_run") - total("ue.base_run"),
		"fleetsync.push_p50_ms":  p50("fleetsync.push") * 1e3,
		"fleetsync.bytes":        tr.count("fleetsync.bytes"),
		"serve.submit_ms":        p50("serve.submit") * 1e3,
		"serve.queue_wait_s":     p50("serve.queue_wait"),
		"serve.artifact_get_ms":  p50("serve.artifact_get") * 1e3,
		"serve.dedup_ms":         p50("serve.dedup") * 1e3,
		"serve.cache_hit_frac":   per(hits, hits+misses),
		"trace.overhead_frac":    per(float64(len(spans))*spanCost().Seconds(), wall),
	}
	for _, id := range cellwheels.SectionIDs() {
		values["report."+id+"_ms"] = total("report."+id) * 1e3
	}
	out := map[string]metric{}
	for _, d := range perLayer() {
		out[d.name] = metric{values[d.name], d.unit}
	}
	return out
}

// per divides, reading 0 for an empty denominator.
func per(x, n float64) float64 {
	if n == 0 {
		return 0
	}
	return x / n
}

// orZero maps the NaN of an empty sample to 0, which JSON can carry.
func orZero(x float64) float64 {
	if x != x {
		return 0
	}
	return x
}

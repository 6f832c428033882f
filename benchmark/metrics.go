package main

import (
	"fmt"

	"mqsspulse/internal/passes"
	"mqsspulse/internal/telemetry"
)

// metricDef names one reported metric; BENCHMARK.json lists the same
// names, units and directions (metrics_test.go holds the two together).
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd lists what a user of the stack pays, measured with the
// benchmark's span recorder off. The share of failed operations is not a
// metric of its own, because a metric may never read zero: it is the
// failed/attempted pair of every result.
var endToEnd = []metricDef{
	{"op_ms_p50", "ms", "lower"},
	{"jobs_per_s", "1/s", "higher"},
	{"allocs_per_job", "count", "lower"},
	{"bytes_per_job", "bytes", "lower"},
	{"setup_s", "s", "lower"},
}

// timelineStages maps the stack's own timeline stages onto the
// timeline.*_share metrics.
var timelineStages = map[telemetry.Stage]string{
	telemetry.StageCompile:       "timeline.compile_share",
	telemetry.StageQueueWait:     "timeline.queue_wait_share",
	telemetry.StageBind:          "timeline.bind_share",
	telemetry.StageDispatch:      "timeline.dispatch_share",
	telemetry.StageDeviceExecute: "timeline.device_execute_share",
	telemetry.StageReadoutPost:   "timeline.readout_post_share",
}

// perLayer lists the traced run's metrics, <module>.<metric>. Those of
// windowLayerMetrics come from the workload's own traced window; all
// others are probes of one module's public functions on fixed inputs and
// read the same whatever the workload.
func perLayer() []metricDef {
	defs := []metricDef{
		{"qpi.build_us", "us", "lower"},
		{"qpi.op_ms_p90", "ms", "lower"},
		{"qpi.op_ms_p99", "ms", "lower"},
		{"client.compile_hit_us", "us", "lower"},
		{"client.cache_hit_ratio", "ratio", "higher"},
		{"client.cache_evictions", "count", "lower"},
		{"client.submit_us", "us", "lower"},
		{"compiler.compile_us", "us", "lower"},
		{"compiler.frontend_us", "us", "lower"},
		{"compiler.passes_us", "us", "lower"},
		{"compiler.backend_us", "us", "lower"},
	}
	for _, p := range passes.DefaultPipeline().Passes() {
		defs = append(defs, metricDef{"compiler.pass_us." + p, "us", "lower"})
	}
	return append(defs, []metricDef{
		{"compiler.payload_bytes", "bytes", "lower"},
		{"compiler.mlir_ops_out", "count", "lower"},
		{"compiler.qdmi_queries", "count", "lower"},
		{"ptemplate.lower_us", "us", "lower"},
		{"ptemplate.bind_us", "us", "lower"},
		{"ptemplate.bind_allocs", "count", "lower"},
		{"qir.parse_us", "us", "lower"},
		{"qir.link_us", "us", "lower"},
		{"pulse.resolve_us", "us", "lower"},
		{"qrm.roundtrip_us", "us", "lower"},
		{"qrm.queue_wait_ms_p50", "ms", "lower"},
		{"qrm.sched_efficiency", "ratio", "higher"},
		{"qrm.steals_per_burst", "count", "lower"},
		{"qrm.placement_spread", "ratio", "lower"},
		{"qdmi.query_ns", "ns", "lower"},
		{"devices.job_us", "us", "lower"},
		{"devices.module_job_us", "us", "lower"},
		{"devices.job_allocs", "count", "lower"},
		{"simq.run_ms", "ms", "lower"},
		{"simq.shots_per_s", "1/s", "higher"},
		{"simq.worker_busy_share", "ratio", "higher"},
		{"simq.run_allocs", "count", "lower"},
		{"simq.density_run_ms", "ms", "lower"},
		{"simq.readout_wall_share", "ratio", "lower"},
		{"readout.discriminate_ns_per_shot", "ns", "lower"},
		{"readout.integrate_ns_per_sample", "ns", "lower"},
		{"telemetry.span_record_ns", "ns", "lower"},
		{"telemetry.spans_per_job", "count", "lower"},
		{"timeline.compile_share", "ratio", "lower"},
		{"timeline.queue_wait_share", "ratio", "lower"},
		{"timeline.bind_share", "ratio", "lower"},
		{"timeline.dispatch_share", "ratio", "lower"},
		{"timeline.device_execute_share", "ratio", "lower"},
		{"timeline.readout_post_share", "ratio", "lower"},
		{"timeline.unattributed_share", "ratio", "lower"},
		{"remote.rtt_us", "us", "lower"},
		{"remote.overhead_us", "us", "lower"},
		{"remote.req_bytes", "bytes", "lower"},
		{"remote.resp_bytes", "bytes", "lower"},
		{"remote.iq_resp_ms", "ms", "lower"},
		{"bench.trace_overhead_ratio", "ratio", "lower"},
	}...)
}

// metricValue is one measured metric as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fill builds the metric set of a result from measured values, refusing a
// missing one: every listed metric is reported on every run.
func fill(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("benchmark: metric %s was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

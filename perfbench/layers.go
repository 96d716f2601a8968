package main

import (
	"context"
	"time"

	"regimap/internal/obs"
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit, better string
}

// endToEndMetrics are reported by every workload with --trace 0.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"pass_ref", "ref", "lower"},
	{"perf_mean", "ratio", "higher"},
	{"mapped_frac", "frac", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// hardFive are the paper-suite kernels that climb furthest above MII and
// take most of its compile time.
var hardFive = []string{"conv3x3", "dct4_row", "fft_radix2", "fir8", "lbm_stream"}

// layerMetrics are reported by every workload with --trace 1; a layer the
// workload does not run reads 0.
func layerMetrics() []metricDef {
	defs := []metricDef{
		{"pass_cpu_s", "s", "lower"},
		{"pass_wall_s", "s", "lower"},
		{"ref_ms", "ms", "lower"},
		{"op_ms_p50", "ms", "lower"},
		{"op_ms_p90", "ms", "lower"},
		{"core.map_ms", "ms", "lower"},
		{"core.driver_ms", "ms", "lower"},
		{"sched.ms", "ms", "lower"},
		{"compat.ms", "ms", "lower"},
		{"clique.ms", "ms", "lower"},
		{"learn.ms", "ms", "lower"},
		{"core.attempts", "count", "lower"},
		{"core.iis_tried", "count", "lower"},
		{"core.reschedules", "count", "lower"},
		{"core.thinnings", "count", "lower"},
		{"core.route_inserts", "count", "lower"},
		{"core.place_yield", "frac", "higher"},
		{"compat.nodes", "count", "lower"},
		{"compat.edges", "count", "lower"},
		{"hard5.ms", "ms", "lower"},
		{"hard5.ii_sum", "ii", "lower"},
	}
	for _, k := range hardFive {
		defs = append(defs, metricDef{"kernel." + k + ".ms", "ms", "lower"})
	}
	for _, k := range paperKernels() {
		defs = append(defs, metricDef{"kernel." + k + ".ii", "ii", "lower"})
	}
	defs = append(defs,
		metricDef{"race.clique_ms", "ms", "lower"},
		metricDef{"clique.partition_ms", "ms", "lower"},
		metricDef{"race.portfolio_ms", "ms", "lower"},
		metricDef{"portfolio.windows", "count", "lower"},
		metricDef{"race.dresc_ms", "ms", "lower"},
		metricDef{"dresc.anneal_ms", "ms", "lower"},
		metricDef{"dresc.anneals", "count", "lower"},
		metricDef{"dresc.ii_sum", "ii", "lower"},
	)
	for _, v := range verdicts {
		defs = append(defs, metricDef{"exact.step_ms." + v, "ms", "lower"})
	}
	defs = append(defs,
		metricDef{"exact.steps.sat", "count", "higher"},
		metricDef{"exact.steps.unsat", "count", "higher"},
		metricDef{"exact.steps.unknown", "count", "lower"},
		metricDef{"exact.decisive_frac", "frac", "higher"},
		metricDef{"exact.vars", "count", "lower"},
		metricDef{"exact.clauses", "count", "lower"},
		metricDef{"proven", "count", "higher"},
		metricDef{"sat.conflicts", "count", "lower"},
		metricDef{"sat.decisions", "count", "lower"},
		metricDef{"sat.restarts", "count", "lower"},
		metricDef{"sat.conflicts_per_s", "1/s", "higher"},
		metricDef{"sim.check_ms", "ms", "lower"},
		metricDef{"req_per_s", "1/s", "higher"},
		metricDef{"hit_ms_p50", "ms", "lower"},
		metricDef{"hit_ms_p90", "ms", "lower"},
		metricDef{"miss_ms_p50", "ms", "lower"},
		metricDef{"miss_ms_p90", "ms", "lower"},
		metricDef{"job_ack_ms_p50", "ms", "lower"},
		metricDef{"job_ack_ms_p90", "ms", "lower"},
		metricDef{"server.request_ms_p50", "ms", "lower"},
		metricDef{"memo.hits", "count", "higher"},
		metricDef{"memo.misses", "count", "lower"},
		metricDef{"memo.collapsed", "count", "higher"},
		metricDef{"memo.hit_frac", "frac", "higher"},
		metricDef{"kernels.build_us", "us", "lower"},
		metricDef{"arch.resolve_us", "us", "lower"},
		metricDef{"dfg.fingerprint_us", "us", "lower"},
		metricDef{"arch.fingerprint_us", "us", "lower"},
		metricDef{"engine.miss_ms_p50", "ms", "lower"},
		metricDef{"engine.miss_ms_p90", "ms", "lower"},
		metricDef{"jobs.wal_records", "count", "lower"},
		metricDef{"jobs.completed", "count", "higher"},
		metricDef{"jobs.degraded", "count", "lower"},
		metricDef{"jobs.turnaround_ms_p50", "ms", "lower"},
		metricDef{"server.shed", "count", "lower"},
		metricDef{"trace.overhead_frac", "frac", "lower"},
		metricDef{"trace.unattributed_frac", "frac", "lower"},
	)
	return defs
}

var verdicts = []string{"sat", "unsat", "unknown"}

// traceInto gives one engine call its own in-memory trace, so the call's
// spans can be attributed to it alone; untraced it returns ctx unchanged.
func traceInto(ctx context.Context, traced bool) (context.Context, *obs.MemSink) {
	if !traced {
		return ctx, nil
	}
	sink := &obs.MemSink{}
	return obs.With(ctx, obs.New(sink)), sink
}

// spanDur sums the durations of the named spans in evs (points last 0).
func spanDur(evs []obs.Event, name string) time.Duration {
	var d time.Duration
	for i := range evs {
		if evs[i].Name == name {
			d += evs[i].Dur
		}
	}
	return d
}

// spanCount counts the named spans in evs, leaving out point events.
func spanCount(evs []obs.Event, name string) int {
	n := 0
	for i := range evs {
		if evs[i].Name == name && evs[i].Dur > 0 {
			n++
		}
	}
	return n
}

// fieldSum totals one field over the named events.
func fieldSum(evs []obs.Event, name, key string) int64 {
	var s int64
	for i := range evs {
		if evs[i].Name == name {
			if v, ok := evs[i].FieldVal(key); ok {
				s += v
			}
		}
	}
	return s
}

// corePasses are REGIMap's pipeline pass spans with the layer metric each
// one's time goes to.
var corePasses = []struct{ span, metric string }{
	{"pass.schedule", "sched.ms"},
	{"pass.compat", "compat.ms"},
	{"pass.clique", "clique.ms"},
	{"pass.learn", "learn.ms"},
}

// addCoreLayers attributes one core.Map call's spans to the core layers and
// returns the time they cover: the "ii.attempt" spans, whose self time (the
// learn-loop driver) is the attempt minus its passes.
func addCoreLayers(p *passResult, evs []obs.Event) time.Duration {
	attempts := spanDur(evs, "ii.attempt")
	var passes time.Duration
	for _, cp := range corePasses {
		d := spanDur(evs, cp.span)
		passes += d
		p.layers[cp.metric] += ms(d)
	}
	p.layers["core.driver_ms"] += ms(attempts - passes)
	p.layers["core.iis_tried"] += float64(spanCount(evs, "ii.attempt"))
	p.layers["compat.nodes"] += float64(fieldSum(evs, "pass.compat", "nodes"))
	p.layers["compat.edges"] += float64(fieldSum(evs, "pass.compat", "edges"))
	return attempts
}

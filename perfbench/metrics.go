package main

import (
	"encoding/json"
	"math"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric. moves and on record, for a
// per-layer metric, the end-to-end metric it should move and on which
// workloads — written down before anything is measured.
type metricDef struct {
	name, unit, better string
	moves, on          string
}

// endToEnd lists the end-to-end metrics BENCHMARK.json gates. Every
// workload reports every one of them: each runs all four phases, in
// different proportions. They are the figures the reference host lets
// hold still: its hypervisor steals from 4% to over 30% of a run's CPU
// time, in bursts, and stolen time is not the program's. The kernel
// leaves it out of the process's CPU time, so the rates are per
// CPU-second (see perCPU) and set-up is timed in CPU seconds; over ten
// seeds under heavy steal their spreads stayed within 0.2, where the
// wall-clock latencies spread from 0.26 to over 2.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "rss_peak_mb", unit: "MB", better: "lower"},
	{name: "req_capacity_rps", unit: "1/s", better: "higher"},
	{name: "wc_configs_per_s", unit: "1/s", better: "higher"},
	{name: "mc_trials_per_s", unit: "1/s", better: "higher"},
}

// reportOnly lists the end-to-end metrics untraced runs print, with
// unit and sample count, and save, but BENCHMARK.json does not gate:
// the wall-clock figures, which move with the host's steal.
var reportOnly = []metricDef{
	{name: "setup_wall_s", unit: "s", better: "lower"},
	{name: "req_p50_ms", unit: "ms", better: "lower"},
	{name: "req_p90_ms", unit: "ms", better: "lower"},
	{name: "req_p99_ms", unit: "ms", better: "lower"},
	{name: "upload_p50_ms", unit: "ms", better: "lower"},
	{name: "wc_job_p50_ms", unit: "ms", better: "lower"},
	{name: "wc_job_p90_ms", unit: "ms", better: "lower"},
	{name: "mc_job_p50_ms", unit: "ms", better: "lower"},
	{name: "mc_job_p90_ms", unit: "ms", better: "lower"},
}

// perLayer lists the metrics of traced runs. Every traced run reports
// every one of them; "on" names the workloads where the metric is
// expected to move.
var perLayer = []metricDef{
	{"loadgen.lag_p99_ms", "ms", "lower", "none: a stalled generator must not pass as a fast server", "serve-mix"},
	{"http.rtt_minus_handler_us", "us", "lower", "req_p50_ms", "serve-mix"},
	{"serve.bounds.handler_us", "us", "lower", "req_p50_ms, req_capacity_rps", "serve-mix"},
	{"serve.eval.handler_us", "us", "lower", "req_p50_ms, req_capacity_rps", "serve-mix"},
	{"serve.inject.handler_us", "us", "lower", "req_p50_ms, req_capacity_rps", "serve-mix"},
	{"serve.worstcase.handler_us", "us", "lower", "req_p50_ms, req_capacity_rps", "serve-mix"},
	{"serve.montecarlo.handler_us", "us", "lower", "req_p50_ms, req_capacity_rps", "serve-mix"},
	{"serve.upload.handler_us", "us", "lower", "req_p99_ms", "serve-mix"},
	{"serve.bounds.allocs", "count", "lower", "req_p50_ms, req_capacity_rps", "serve-mix"},
	{"serve.inject.allocs", "count", "lower", "req_p50_ms, req_capacity_rps", "serve-mix"},
	{"serve.resp_bytes", "bytes", "lower", "req_p50_ms, req_capacity_rps", "serve-mix"},
	{"serve.cold_first_query_ms", "ms", "lower", "req_p99_ms", "serve-mix"},
	{"core.certifier.query_ns", "ns", "lower", "req_p50_ms (predicted tiny)", "serve-mix"},
	{"core.nodeshape.query_ns", "ns", "lower", "req_p50_ms (predicted tiny)", "serve-mix"},
	{"core.prune_frac", "ratio", "higher", "wc_configs_per_s, wc_job_p50_ms", "campaign-dense, campaign-graph"},
	{"fault.compiled.trace_us", "us", "lower", "req_p50_ms, req_p99_ms through inject", "serve-mix"},
	{"fault.batch.lane_trace_ns", "ns", "lower", "mc_trials_per_s", "campaign-dense, campaign-graph"},
	{"fault.worstcase.ns_per_visited", "ns", "lower", "wc_configs_per_s", "campaign-dense, campaign-graph"},
	{"fault.worstcase.visited", "count", "lower", "wc_configs_per_s", "campaign-dense, campaign-graph"},
	{"fault.cleantraces_ms", "ms", "lower", "setup_s, serve.cold_first_query_ms", "all"},
	{"tensor.lanes.gbps", "GB/s", "higher", "mc_trials_per_s, wc_configs_per_s", "campaign-dense"},
	{"tensor.lanes.gflops", "GFLOP/s", "higher", "mc_trials_per_s, wc_configs_per_s", "campaign-dense"},
	{"tensor.lanes.bytes_per_call", "bytes", "lower", "mc_trials_per_s, wc_configs_per_s", "campaign-dense"},
	{"tensor.csr.gbps", "GB/s", "higher", "mc_trials_per_s, wc_configs_per_s", "campaign-graph"},
	{"tensor.csr.gflops", "GFLOP/s", "higher", "mc_trials_per_s, wc_configs_per_s", "campaign-graph"},
	{"tensor.csr.bytes_per_call", "bytes", "lower", "mc_trials_per_s, wc_configs_per_s", "campaign-graph"},
	{"roofline.copy_gbps", "GB/s", "higher", "none: the ceiling the tensor rates are read against", "campaign-dense, campaign-graph"},
	{"roofline.fma_gflops", "GFLOP/s", "higher", "none: the ceiling the tensor rates are read against", "campaign-dense, campaign-graph"},
	{"activation.eval_ns_per_elem", "ns", "lower", "mc_trials_per_s, wc_configs_per_s", "campaign-dense, campaign-graph"},
	{"nn.forward_us", "us", "lower", "eval share of req_p50_ms", "serve-mix"},
	{"graph.forward_us", "us", "lower", "eval share of req_p50_ms", "serve-mix"},
	{"conv.forward_us", "us", "lower", "eval share of req_p50_ms", "serve-mix"},
	{"parallel.forctx_dispatch_us", "us", "lower", "mc_job_p50_ms", "campaign-dense, campaign-graph"},
	{"rng.plan_ns", "ns", "lower", "mc_trials_per_s", "campaign-dense, campaign-graph"},
	{"jobs.queue_wait_ms", "ms", "lower", "wc_job_p50_ms, mc_job_p50_ms", "campaign-dense, campaign-graph"},
	{"jobs.run_ms", "ms", "lower", "wc_job_p50_ms, mc_job_p50_ms", "campaign-dense, campaign-graph"},
	{"jobs.overhead_ms", "ms", "lower", "wc_job_p50_ms, mc_job_p50_ms", "campaign-dense, campaign-graph"},
	{"jobs.checkpoints", "count", "lower", "wc_job_p50_ms, mc_job_p50_ms", "campaign-dense, campaign-graph"},
	{"jobs.memo_hit_ms", "ms", "lower", "wc_job_p50_ms, mc_job_p50_ms", "campaign-dense, campaign-graph"},
	{"store.put_us", "us", "lower", "jobs.overhead_ms, req_p99_ms through uploads, setup_s", "all"},
	{"store.checkpoint_us", "us", "lower", "jobs.overhead_ms", "campaign-dense, campaign-graph"},
	{"store.manifest_kb", "KB", "lower", "jobs.overhead_ms, req_p99_ms through uploads", "all"},
	{"trace.overhead.req_p50_ms", "ms", "lower", "none: traced minus untraced req_p50_ms", "all"},
	{"trace.overhead.wc_job_p50_ms", "ms", "lower", "none: traced minus untraced wc_job_p50_ms", "all"},
	{"trace.overhead.mc_job_p50_ms", "ms", "lower", "none: traced minus untraced mc_job_p50_ms", "all"},
}

// value is one measured metric with its sample count.
type value struct {
	v float64
	n int
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func durMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// rssPeakMB is the process's peak resident set, from getrusage.
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the CPU time the process has been given (getrusage user
// plus system). The kernel leaves out time the hypervisor stole.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// perCPU converts work done in a phase into a rate per second on
// clients() whole CPUs: work per CPU-second the process was given,
// times the CPU count. A wall-clock rate moved with the host's steal
// (capacity spread 0.37 over ten seeds); a CPU-time rate does not.
// Waiting the program does itself — on locks, the disk or the network
// — shows in the reported latencies instead.
func perCPU(work float64, cpu time.Duration) float64 {
	return work / cpu.Seconds() * float64(clients())
}

// endToEndMetrics computes the end-to-end metrics of one run's phases.
func endToEndMetrics(ph *phases) map[string]value {
	m := map[string]value{}
	// Uploads are a mode of their own — a store write and a cold cache
	// build, several times a query's latency — so they are timed apart
	// rather than setting the queries' tail.
	var queries, uploads []float64
	for _, r := range ph.open {
		if r.tmpl.spec.route == "upload" {
			uploads = append(uploads, ms(r.end.Sub(r.from)))
		} else {
			queries = append(queries, ms(r.end.Sub(r.from)))
		}
	}
	m["req_p50_ms"] = value{quantile(queries, 0.5), len(queries)}
	m["req_p90_ms"] = value{quantile(queries, 0.9), len(queries)}
	m["req_p99_ms"] = value{quantile(queries, 0.99), len(queries)}
	m["upload_p50_ms"] = value{quantile(uploads, 0.5), len(uploads)}
	done := 0
	for i := range ph.closed {
		if ph.closed[i].ok() {
			done++
		}
	}
	m["req_capacity_rps"] = value{perCPU(float64(done), ph.closedCPU), done}
	for _, kind := range []string{"worstcase", "montecarlo"} {
		var lat []float64
		var work float64
		for _, j := range ph.jobs {
			if j.spec.kind != kind || !j.ok() {
				continue
			}
			lat = append(lat, ms(j.end.Sub(j.start)))
			work += jobWork(j)
		}
		cpu := ph.wcCPU
		if kind == "montecarlo" {
			cpu = ph.mcCPU
		}
		prefix := map[string]string{"worstcase": "wc", "montecarlo": "mc"}[kind]
		m[prefix+"_job_p50_ms"] = value{quantile(lat, 0.5), len(lat)}
		m[prefix+"_job_p90_ms"] = value{quantile(lat, 0.9), len(lat)}
		rate := prefix + "_configs_per_s"
		if kind == "montecarlo" {
			rate = prefix + "_trials_per_s"
		}
		m[rate] = value{perCPU(work, cpu), len(lat)}
	}
	return m
}

// jobWork is a finished job's unit count: configurations certified by
// a worst-case sweep, trials run by a Monte Carlo campaign.
func jobWork(j *jobResult) float64 {
	var doc struct {
		Configurations float64 `json:"configurations"`
		Trials         float64 `json:"trials"`
	}
	if json.Unmarshal(j.result, &doc) != nil {
		return 0
	}
	return doc.Configurations + doc.Trials
}

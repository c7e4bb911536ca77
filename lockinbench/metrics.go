package main

import "strings"

// metricDecl declares one reported metric. BENCHMARK.json at the root of
// the repository mirrors these declarations; metrics_test.go keeps the
// two identical.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`          // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: the relative worsening that is a regression
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of lockin sees, reported by every
// workload of an untraced run. An op is one simulated grid cell on the
// grid workloads; a latency is the wait for one user request: a whole
// sweep (spin-storm, sleep-storm), one experiment (paper-suite) or one
// distributed run (fleet-skewed). On serve-mixed, an op is one HTTP
// operation, and both numbers are geometric means over its six kinds of
// operation, each kind weighing the same (see serveBench.measure).
var endToEnd = []metricDecl{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "ops_per_s", Unit: "ops/s", Better: higher, Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: lower, Bound: 0.2},
}

// paperIDs freezes the paper-suite: every experiment registered at the
// time the benchmark was written, in registration order. A commit that
// drops one of them cannot run this workload.
var paperIDs = []string{
	"ext_future", "ext_fairness", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
	"tbl_sleep", "fig7", "tbl2", "fig11", "fig8", "fig9", "fig10", "tbl_timeout",
	"fig12", "fig13", "fig14", "fig15", "ablation", "fig10_tail",
	"scenario:condpipe", "scenario:hamsterdb", "scenario:kyoto", "scenario:memcached",
	"scenario:memcached_get", "scenario:mysql_mem", "scenario:mysql_ssd",
	"scenario:rocksdb", "scenario:rw95", "scenario:sqlite",
}

// expMetric names the per-experiment wall-time metric of id.
func expMetric(id string) string {
	return "exp." + strings.ReplaceAll(id, ":", "-") + ".wall_s"
}

// shareLayers are the buckets CPU profile samples are attributed to
// (see layerOf): one per lockin/internal package that does measurable
// work, "other" for the rest of lockin/internal, "bench" for this
// harness and "runtime" for samples with no lockin frame at all.
var shareLayers = []string{
	"sim", "coherence", "futex", "sched", "power", "machine", "core",
	"workload", "systems", "scenario", "sweep", "experiments", "metrics",
	"results", "serve", "telemetry", "fleet", "other", "bench", "runtime",
}

// perLayer are the metrics of single layers, reported by every workload
// of a traced run (0 where the workload does not reach the layer).
// Counts taken from simulated statistics repeat exactly for a seed.
var perLayer = func() []metricDecl {
	d := []metricDecl{
		{Name: "sim.events", Unit: "count", Better: lower},
		{Name: "sim.ns_per_event", Unit: "ns", Better: lower},
		{Name: "sim.heap_high_water", Unit: "count", Better: lower},
		{Name: "sim.heap_compactions", Unit: "count", Better: lower},
		{Name: "coherence.transfers", Unit: "count", Better: lower},
		{Name: "coherence.rmws", Unit: "count", Better: lower},
		{Name: "coherence.watcher_wakes", Unit: "count", Better: lower},
		{Name: "futex.waits", Unit: "count", Better: lower},
		{Name: "futex.wakes", Unit: "count", Better: lower},
		{Name: "futex.timeouts", Unit: "count", Better: lower},
		{Name: "futex.bucket_wait_mcycles", Unit: "Mcycles", Better: lower},
		{Name: "futex.timeout_wake_races", Unit: "count", Better: lower},
		{Name: "core.mutexee.handovers", Unit: "count", Better: higher},
		{Name: "core.mutexee.sleeps", Unit: "count", Better: lower},
		{Name: "scenario.compile_ms", Unit: "ms", Better: lower},
		{Name: "sweep.cells", Unit: "count", Better: higher},
		{Name: "sweep.busy_s", Unit: "s", Better: lower},
		{Name: "sweep.utilization", Unit: "fraction", Better: higher},
		{Name: "results.decode_ms", Unit: "ms", Better: lower},
		{Name: "results.encode_ms", Unit: "ms", Better: lower},
		{Name: "results.slice_ms", Unit: "ms", Better: lower},
		{Name: "results.project_ms", Unit: "ms", Better: lower},
		{Name: "results.compare_ms", Unit: "ms", Better: lower},
		{Name: "serve.admit_ms", Unit: "ms", Better: lower},
		{Name: "serve.queue_ms", Unit: "ms", Better: lower},
		{Name: "serve.run_ms", Unit: "ms", Better: lower},
		{Name: "serve.fetch_ms", Unit: "ms", Better: lower},
		{Name: "serve.slice_ms", Unit: "ms", Better: lower},
		{Name: "serve.project_ms", Unit: "ms", Better: lower},
		{Name: "serve.diff_ms", Unit: "ms", Better: lower},
		{Name: "serve.submit_p50_ms", Unit: "ms", Better: lower},
		{Name: "serve.submit_p90_ms", Unit: "ms", Better: lower},
		{Name: "serve.hit_p50_ms", Unit: "ms", Better: lower},
		{Name: "serve.hit_p99_ms", Unit: "ms", Better: lower},
		{Name: "serve.query_p50_ms", Unit: "ms", Better: lower},
		{Name: "serve.query_p99_ms", Unit: "ms", Better: lower},
		{Name: "telemetry.render_ms", Unit: "ms", Better: lower},
		{Name: "fleet.survey_ms", Unit: "ms", Better: lower},
		{Name: "fleet.chunks", Unit: "count", Better: lower},
		{Name: "fleet.busy_ratio", Unit: "fraction", Better: higher},
		{Name: "fleet.imbalance", Unit: "ratio", Better: lower},
		{Name: "go.gc_cpu_share", Unit: "fraction", Better: lower},
		{Name: "go.alloc_bytes_per_op", Unit: "B", Better: lower},
		{Name: "go.allocs_per_op", Unit: "count", Better: lower},
		{Name: "go.gc_cycles", Unit: "count", Better: lower},
		{Name: "go.sched_latency_p99_us", Unit: "us", Better: lower},
		{Name: "bench.traced_ops_per_s", Unit: "ops/s", Better: higher},
	}
	for _, l := range shareLayers {
		d = append(d, metricDecl{Name: l + ".cpu_share", Unit: "fraction", Better: lower})
	}
	for _, id := range paperIDs {
		d = append(d, metricDecl{Name: expMetric(id), Unit: "s", Better: lower})
	}
	return d
}()

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// render picks the metrics decls declares out of values; a declared
// metric the run did not produce reads 0.
func render(decls []metricDecl, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(decls))
	for _, d := range decls {
		out[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}

// declared returns the declaration of name among the end-to-end and
// per-layer metrics.
func declared(name string) (metricDecl, bool) {
	for _, set := range [][]metricDecl{endToEnd, perLayer} {
		for _, d := range set {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDecl{}, false
}

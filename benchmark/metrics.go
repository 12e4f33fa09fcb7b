package main

// metricDef describes one reported metric. The tables below are the
// single source of the benchmark's metric names: BENCHMARK.json must
// list exactly these (harness_test.go checks it), and the final result
// line carries exactly endToEnd with tracing off and exactly perLayer
// with tracing on.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change is rejected (0 for per-layer
	// metrics, which carry no bound).
	Bound float64
}

// endToEnd lists what a user of the simulator pays and gets, in report
// order. Every bound is at least three times the widest interquartile
// spread seen over ten differently-seeded 30-second runs of any workload
// on the 2-core recording box (README.md has the table). The three time
// metrics are reported at reference speed (ref.go) and spread by 3-6%
// there, but the driver's box has been seen far busier than the
// recording box, so their bounds are as wide as the contract allows; the
// simulated outcomes are exact for a given seed, so theirs is the
// seed-to-seed variation of the protocol itself.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_ms_per_host_hour", "ms", "lower", 0.25},
	{"cpu_ms_per_host_hour", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"alloc_mb_per_host_hour", "MB", "lower", 0.15},
	{"allocs_per_host_hour", "count", "lower", 0.12},
	{"anycast_delivery_rate", "ratio", "higher", 0.10},
	{"anycast_mean_hops", "hops", "lower", 0.25},
	{"dissem_coverage", "ratio", "higher", 0.10},
	{"dissem_useful_frac", "ratio", "higher", 0.05},
}

// cpuLayers are the buckets of the CPU-share table: the module's own
// packages by name (crypto/* folds into ids, whose pair hash is its only
// caller) and four buckets for the Go runtime and standard library.
var cpuLayers = []string{
	"shuffle", "core", "ids", "avmon", "avdist", "sim", "ops", "agg",
	"audit", "adversary", "exp", "node", "transport", "runtime",
	"scenario", "stats", "trace", "obs",
	"go.gc", "go.malloc", "go.map", "go.other",
}

// spanMetrics are the phase spans recorded from outside, through the
// timestamping Options.Log writer.
var spanMetrics = []metricDef{
	{"scenario.setup_ms", "ms", "lower", 0},
	{"exp.warmup_ms_per_host_hour", "ms", "lower", 0},
	{"ops.anycast.wall_us_per_op", "us", "lower", 0},
	{"ops.multicast.wall_us_per_op", "us", "lower", 0},
	{"ops.rangecast.wall_us_per_op", "us", "lower", 0},
	{"ops.aggregate.wall_us_per_op", "us", "lower", 0},
}

// countMetrics come from the obs registry and tracer armed in the
// traced rep, and from Result.Metrics.
var countMetrics = []metricDef{
	{"sim.events_per_host_hour", "count", "lower", 0},
	{"sim.events_per_s", "1/s", "higher", 0},
	{"ops.anycast.delivered", "count", "higher", 0},
	{"ops.multicast.delivered", "count", "higher", 0},
	{"ops.rangecast.delivered", "count", "higher", 0},
	{"ops.agg.accuracy", "ratio", "higher", 0},
	{"ops.agg.partial_accept_ratio", "ratio", "higher", 0},
	{"ops.agg.forgery_rejected", "count", "higher", 0},
	{"ops.dissem.useful_ratio", "ratio", "higher", 0},
	{"audit.suspicions", "count", "higher", 0},
	{"audit.evictions", "count", "higher", 0},
	{"core.mean_sliver_size", "count", "lower", 0},
	{"core.max_sliver_size", "count", "lower", 0},
	{"obs.spans_recorded", "count", "higher", 0},
	{"obs.traced_overhead_frac", "ratio", "lower", 0},
}

// perLayer is the full per-layer list in report order: CPU shares, phase
// spans, counts, kernels.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, l := range cpuLayers {
		out = append(out, metricDef{l + ".cpu_share", "ratio", "lower", 0})
	}
	out = append(out, spanMetrics...)
	out = append(out, countMetrics...)
	for _, k := range kernels {
		out = append(out, metricDef{k.name, k.unit, "lower", 0})
	}
	return out
}()

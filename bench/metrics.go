package main

// metricDef is one line of the benchmark's contract. The end-to-end
// half is mirrored in BENCHMARK.json (a test keeps the two equal);
// Layer and Moves are the written-down prediction of which end-to-end
// metric a layer metric should move, and on which workload.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Layer  string  // per-layer only: the module it belongs to
	Moves  string  // per-layer only: "<end-to-end metric> on <workload>"
}

// Every workload reports every end-to-end metric, with the unit of work
// ("op") the workload names: a domain attributed on the scan workloads,
// a correct response on the serving ones.
var endToEnd = []metricDef{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_heap_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

const (
	onFlat   = "scan-flat"
	onWire   = "scan-wire"
	onDirect = "serve-direct"
	onLB     = "serve-lb"
)

// perLayer lists the layer metrics of the traced run. A workload that
// does not exercise a layer reports its metrics as 0, which is itself
// the prediction "this layer does nothing here".
var perLayer = []metricDef{
	// scan-flat: the million-domain path.
	{Name: "scan.collect_s", Unit: "s", Better: "lower", Layer: "scan", Moves: "ops_per_s on scan-flat, scan-wire"},
	{Name: "scan.steals", Unit: "count", Better: "lower", Layer: "scan", Moves: "ops_per_s on scan-flat"},
	{Name: "scan.allocs_per_domain", Unit: "count", Better: "lower", Layer: "scan", Moves: "ops_per_s on scan-flat"},
	{Name: "scan.peak_heap_mb", Unit: "MiB", Better: "lower", Layer: "scan", Moves: "peak_heap_mb on scan-flat"},
	{Name: "world.resolve_s", Unit: "s", Better: "lower", Layer: "world", Moves: "ops_per_s on scan-flat (the synthetic Internet's share)"},
	{Name: "smtp.sessions", Unit: "count", Better: "lower", Layer: "smtp", Moves: "ops_per_s on scan-wire"},
	{Name: "smtp.session_s", Unit: "s", Better: "lower", Layer: "smtp", Moves: "ops_per_s on scan-wire"},
	{Name: "dataset.shards", Unit: "count", Better: "lower", Layer: "dataset", Moves: "ops_per_s on scan-flat"},
	{Name: "dataset.merge_s", Unit: "s", Better: "lower", Layer: "dataset", Moves: "ops_per_s on scan-flat"},
	{Name: "dataset.merged_mb", Unit: "MiB", Better: "lower", Layer: "dataset", Moves: "ops_per_s on scan-flat"},
	{Name: "dataset.merge_allocs_per_record", Unit: "count", Better: "lower", Layer: "dataset", Moves: "ops_per_s on scan-flat"},
	{Name: "dataset.stream_s", Unit: "s", Better: "lower", Layer: "dataset", Moves: "ops_per_s on scan-flat; setup_s on serve-*"},
	{Name: "dataset.shard_write_s", Unit: "s", Better: "lower", Layer: "dataset", Moves: "ops_per_s on scan-flat"},
	{Name: "core.pass_a_s", Unit: "s", Better: "lower", Layer: "core", Moves: "ops_per_s on scan-flat; setup_s on serve-*"},
	{Name: "core.pass_b_s", Unit: "s", Better: "lower", Layer: "core", Moves: "ops_per_s on scan-flat; setup_s on serve-*"},
	{Name: "core.infer_self_s", Unit: "s", Better: "lower", Layer: "core", Moves: "ops_per_s on scan-flat"},
	{Name: "core.allocs_per_domain", Unit: "count", Better: "lower", Layer: "core", Moves: "ops_per_s on scan-flat"},
	{Name: "core.peak_heap_mb", Unit: "MiB", Better: "lower", Layer: "core", Moves: "peak_heap_mb on scan-flat"},
	{Name: "analysis.accumulate_s", Unit: "s", Better: "lower", Layer: "analysis", Moves: "ops_per_s on scan-flat"},
	{Name: "core.correct", Unit: "count", Better: "higher", Layer: "core", Moves: "none (exact count, identical across trials)"},
	{Name: "core.untrusted", Unit: "count", Better: "lower", Layer: "core", Moves: "none (exact count, identical across trials)"},

	// scan-wire: the wire-faithful path.
	{Name: "dns.lookups", Unit: "count", Better: "lower", Layer: "dns", Moves: "ops_per_s on scan-wire"},
	{Name: "dns.resolve_s", Unit: "s", Better: "lower", Layer: "dns", Moves: "ops_per_s on scan-wire"},
	{Name: "dns.upstream_queries", Unit: "count", Better: "lower", Layer: "dns", Moves: "ops_per_s on scan-wire"},
	{Name: "dns.cache_hit_ratio", Unit: "ratio", Better: "higher", Layer: "dns", Moves: "ops_per_s on scan-wire"},
	{Name: "dns.server_queries", Unit: "count", Better: "lower", Layer: "dns", Moves: "ops_per_s on scan-wire"},
	{Name: "dns.retries", Unit: "count", Better: "lower", Layer: "dns", Moves: "ops_per_s on scan-wire"},
	{Name: "smtp.retries", Unit: "count", Better: "lower", Layer: "smtp", Moves: "ops_per_s on scan-wire"},
	{Name: "scan.breaker_opens", Unit: "count", Better: "lower", Layer: "scan", Moves: "ops_per_s on scan-wire"},
	{Name: "netsim.dials", Unit: "count", Better: "lower", Layer: "netsim", Moves: "ops_per_s on scan-wire"},
	{Name: "core.infer_s", Unit: "s", Better: "lower", Layer: "core", Moves: "ops_per_s on scan-wire"},
	{Name: "core.infer_serial_s", Unit: "s", Better: "lower", Layer: "core", Moves: "none (Parallelism 1 baseline of core.infer_s)"},

	// serve-direct: reads of the serving layer.
	{Name: "serve.handler_p50_us", Unit: "us", Better: "lower", Layer: "serve", Moves: "latency_ms, ops_per_s on serve-direct"},
	{Name: "serve.handler_p99_us", Unit: "us", Better: "lower", Layer: "serve", Moves: "latency_ms on serve-direct"},
	{Name: "serve.wire_p50_us", Unit: "us", Better: "lower", Layer: "serve", Moves: "latency_ms, ops_per_s on serve-direct, serve-lb"},
	{Name: "serve.p99_us", Unit: "us", Better: "lower", Layer: "serve", Moves: "latency_ms on serve-direct"},
	{Name: "serve.p999_us", Unit: "us", Better: "lower", Layer: "serve", Moves: "latency_ms on serve-direct"},
	{Name: "serve.bytes_per_response", Unit: "B", Better: "lower", Layer: "serve", Moves: "ops_per_s on serve-direct"},
	{Name: "serve.allocs_per_request", Unit: "count", Better: "lower", Layer: "serve", Moves: "ops_per_s on serve-direct"},
	{Name: "serve.shed", Unit: "count", Better: "lower", Layer: "serve", Moves: "ops_per_s on serve-direct, serve-lb"},
	{Name: "serve.lost", Unit: "count", Better: "lower", Layer: "serve", Moves: "none (must be 0)"},
	{Name: "serve.reconnects", Unit: "count", Better: "lower", Layer: "serve", Moves: "ops_per_s on serve-direct"},
	{Name: "gen.floor_rps", Unit: "1/s", Better: "higher", Layer: "gen", Moves: "ceiling of ops_per_s on serve-*"},
	{Name: "gen.allocs_per_request", Unit: "count", Better: "lower", Layer: "gen", Moves: "ceiling of ops_per_s on serve-*"},
	{Name: "serve.paced_p50_us", Unit: "us", Better: "lower", Layer: "serve", Moves: "none (open-loop diagnostic)"},
	{Name: "gen.late_p99_us", Unit: "us", Better: "lower", Layer: "gen", Moves: "none (how late the paced sender ran)"},

	// serve-direct: writes of the serving layer.
	{Name: "serve.load_s", Unit: "s", Better: "lower", Layer: "serve", Moves: "setup_s on serve-direct, serve-lb"},
	{Name: "serve.swap_s", Unit: "s", Better: "lower", Layer: "serve", Moves: "none end to end (see README: demoted)"},
	{Name: "serve.live_heap_mb", Unit: "MiB", Better: "lower", Layer: "serve", Moves: "peak_heap_mb on serve-direct"},
	{Name: "serve.load_alloc_mb", Unit: "MiB", Better: "lower", Layer: "serve", Moves: "setup_s on serve-direct"},
	{Name: "serve.swap_alloc_mb", Unit: "MiB", Better: "lower", Layer: "serve", Moves: "serve.swap_s"},
	{Name: "serve.swap_peak_heap_mb", Unit: "MiB", Better: "lower", Layer: "serve", Moves: "serve.swap_s"},
	{Name: "core.delta_reused", Unit: "count", Better: "higher", Layer: "core", Moves: "serve.swap_s"},
	{Name: "core.delta_reinferred", Unit: "count", Better: "lower", Layer: "core", Moves: "serve.swap_s"},
	{Name: "dataset.diff_changed", Unit: "count", Better: "lower", Layer: "dataset", Moves: "serve.swap_s"},
	{Name: "dataset.diff_removed", Unit: "count", Better: "lower", Layer: "dataset", Moves: "serve.swap_s"},
	{Name: "serve.swap_p99_us", Unit: "us", Better: "lower", Layer: "serve", Moves: "none (lookups issued during a swap)"},

	// serve-lb: the balancer hop.
	{Name: "ha.dials_per_request", Unit: "ratio", Better: "lower", Layer: "ha", Moves: "ops_per_s, latency_ms on serve-lb"},
	{Name: "ha.dial_s", Unit: "s", Better: "lower", Layer: "ha", Moves: "ops_per_s, latency_ms on serve-lb"},
	{Name: "ha.upstream_s", Unit: "s", Better: "lower", Layer: "ha", Moves: "ops_per_s, latency_ms on serve-lb"},
	{Name: "ha.handle_p50_us", Unit: "us", Better: "lower", Layer: "ha", Moves: "latency_ms on serve-lb"},
	{Name: "ha.hop_p50_us", Unit: "us", Better: "lower", Layer: "ha", Moves: "latency_ms on serve-lb"},
	{Name: "ha.attempts_per_request", Unit: "ratio", Better: "lower", Layer: "ha", Moves: "ops_per_s on serve-lb"},
	{Name: "ha.retries", Unit: "count", Better: "lower", Layer: "ha", Moves: "ops_per_s on serve-lb"},
	{Name: "ha.hedges", Unit: "count", Better: "lower", Layer: "ha", Moves: "ops_per_s on serve-lb"},
	{Name: "ha.hedge_wins", Unit: "count", Better: "higher", Layer: "ha", Moves: "latency_ms on serve-lb"},
	{Name: "ha.upstream_errs", Unit: "count", Better: "lower", Layer: "ha", Moves: "ops_per_s on serve-lb"},
	{Name: "ha.down_sheds", Unit: "count", Better: "lower", Layer: "ha", Moves: "none (must be 0)"},
	{Name: "ha.proxy_fails", Unit: "count", Better: "lower", Layer: "ha", Moves: "none (must be 0)"},
	{Name: "ha.replica_skew", Unit: "ratio", Better: "lower", Layer: "ha", Moves: "latency_ms on serve-lb"},
	{Name: "ha.p99_us", Unit: "us", Better: "lower", Layer: "ha", Moves: "latency_ms on serve-lb"},
	{Name: "ha.p999_us", Unit: "us", Better: "lower", Layer: "ha", Moves: "latency_ms on serve-lb"},
	{Name: "serve.front_handler_p50_us", Unit: "us", Better: "lower", Layer: "serve", Moves: "latency_ms on serve-lb"},

	// Every workload.
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower", Layer: "trace", Moves: "none (traced wall / plain wall - 1)"},
	{Name: "host.steal_share", Unit: "ratio", Better: "lower", Layer: "host", Moves: "none (share of the CPU asked for that the hypervisor withheld; timings are corrected by it)"},
	{Name: "host.ref_slowdown", Unit: "ratio", Better: "lower", Layer: "host", Moves: "none (reference kernel time / nominal; end-to-end timings are divided by it)"},
	{Name: "trace.accounted_share", Unit: "ratio", Better: "higher", Layer: "trace", Moves: "none (share of a trial's wall inside a named stage; at least 0.95)"},
}

func findMetric(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

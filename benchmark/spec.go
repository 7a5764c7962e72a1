package main

// The metric and workload catalogue. BENCHMARK.json at the repository
// root states the same names, units, directions and bounds for the
// driver; TestBenchmarkJSONMatchesSpec keeps the two from drifting.

type metricDef struct {
	Name, Unit, Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression.
	Bound float64
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is how long one run measures; the contract passes it back
// as --seconds, the full report uses it as its default.
const runSeconds = 30

var workloads = []workloadDef{
	{"pkt-forward", "one stateless compiled module, 64-byte UDP, 64 flows: bare forwarding, vswitch+platform+netsim dominate, pipeline is a few percent"},
	{"pkt-tenants", "64 modules of six families, 16384 flows, mixed sizes, 1% new flows, module churn: cache misses, rule scans, stateful kernels, graph-walk fallback"},
	{"deploy-cold", "every request a never-seen config over HTTP to a 3-node fsync quorum, 96 resident modules: symexec, policy and placement dominate, every cache misses"},
	{"deploy-warm", "re-deploys from a pool of 32 admitted requests on the same stack: caches hit, so fsync, quorum ack and HTTP dominate"},
}

// endToEnd are the metrics a tenant or operator sees. Every workload
// reports every one of them: on the pkt-* workloads an operation is a
// packet (latency: one 32-packet burst), on the deploy-* workloads a
// deploy request.
var endToEnd = []metricDef{
	// pkt: input packets fully drained per wall second; deploy: phase-B
	// (closed loop, 2 clients) completed deploys per second. Reduced
	// over half-second slices: pkt their fast-side decile, deploy their
	// median.
	{Name: "rate_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	// pkt: ProcessBatch call to sim.Run return per 32-packet burst;
	// deploy: phase-A due time to reply decoded. Median per slice, then
	// pkt the fast-side decile of the slices, deploy their median.
	{Name: "latency_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	// MemStats.Mallocs delta of the whole process per packet / per
	// phase-A deploy.
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.05},
	// VmHWM of the benchmark process when the measured window ends.
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	// Median of five set-ups: build the stack, register or boot,
	// resident set, reference cross-check, warm-up. Compiling the
	// benchmark binary is not part of it.
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer lists every per-layer metric; a metric that does not apply
// to a workload reads 0 there (the contract wants every name on every
// traced run).
var perLayer = []metricDef{
	{Name: "vswitch.self_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "vswitch.run_len_pkts", Unit: "count", Better: "higher"},
	{Name: "vswitch.cold_lookup_ratio", Unit: "ratio", Better: "lower"},
	{Name: "vswitch.new_flows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "vswitch.dispatched", Unit: "count", Better: "higher"},
	{Name: "vswitch.misses", Unit: "count", Better: "lower"},
	{Name: "vswitch.install_us_p50", Unit: "us", Better: "lower"},
	{Name: "vswitch.allocs_per_pkt", Unit: "count", Better: "lower"},
	{Name: "platform.deliver_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "platform.drain_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "platform.allocs_per_pkt", Unit: "count", Better: "lower"},
	{Name: "platform.pipeline_share", Unit: "ratio", Better: "higher"},
	{Name: "platform.register_us_p50", Unit: "us", Better: "lower"},
	{Name: "platform.dropped_total", Unit: "count", Better: "lower"},
	{Name: "netsim.events_per_pkt", Unit: "count", Better: "lower"},
	{Name: "netsim.event_ns", Unit: "ns", Better: "lower"},
	{Name: "pipeline.run_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "pipeline.allocs_per_pkt", Unit: "count", Better: "lower"},
	{Name: "pipeline.compile_us_p50", Unit: "us", Better: "lower"},
	{Name: "pipeline.fallback_modules", Unit: "count", Better: "lower"},
	{Name: "click.graphwalk_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "harness.tx_check_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "harness.burst_p50_us", Unit: "us", Better: "lower"},
	{Name: "harness.burst_p95_us", Unit: "us", Better: "lower"},

	{Name: "api.client_self_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "api.handler_self_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "clicklang.canonicalize_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "symexec.cache_lookup_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "security.check_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "policy.check_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "topology.placement_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "controller.self_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "controller.capacity_scaling", Unit: "ratio", Better: "higher"},
	{Name: "controller.kill_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "symexec.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "symexec.memo_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "replication.append_sync_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "replication.self_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "replication.peer_lag_max", Unit: "count", Better: "lower"},
	{Name: "replication.elections", Unit: "count", Better: "lower"},
	{Name: "journal.append_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "journal.bytes_per_deploy", Unit: "B", Better: "lower"},
	{Name: "harness.deploy_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.deploy_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.lateness_ms_p99", Unit: "ms", Better: "lower"},
}

package main

// metricDef is one reported metric; BENCHMARK.json lists the same names
// and units.
type metricDef struct {
	name, unit string
}

// endToEndMetrics are what a user of the system sees. One op is a call in
// invoke and evolve, a sub-call in batch, and an acknowledged write in
// replicated-write; a batch latency sample is one whole frame. Throughput
// and the p90/p99 latencies are per-layer diagnostics instead (layers.json):
// on a shared VM the process stalls for stretches that a closed loop turns
// into lost throughput and tail latency, but not into median latency.
var endToEndMetrics = []metricDef{
	{"latency_p50_us", "us"},
	{"cpu_us_per_op", "us"},
	{"allocs_per_op", "count"},
	{"alloc_bytes_per_op", "B"},
	{"heap_peak_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayerMetrics come from a -trace 1 run. A layer a workload does not
// reach reports 0; layers.json says which workloads each one applies to.
var perLayerMetrics = []metricDef{
	{"rpc.invoke.self_us", "us"},
	{"rpc.attempts_per_call", "ratio"},
	{"rpc.rebinds", "count"},
	{"rpc.batch_fallbacks_per_subcall", "ratio"},
	{"naming.lookups_per_op", "ratio"},
	{"naming.cache_hit_ratio", "ratio"},
	{"naming.lookup.us", "us"},
	{"transport.call.us_p50", "us"},
	{"transport.calls_per_op", "ratio"},
	{"transport.request_bytes_per_op", "B"},
	{"transport.response_bytes_per_op", "B"},
	{"transport.frames_per_flush", "ratio"},
	{"transport.conns_open", "count"},
	{"wire.encode_ns", "ns"},
	{"wire.decode_ns", "ns"},
	{"wire.pool_hit_ratio", "ratio"},
	{"rpc.dispatch.us", "us"},
	{"rpc.dispatch.queued", "count"},
	{"rpc.dispatch.shed", "count"},
	{"core.invoke.us", "us"},
	{"core.apply.us", "us"},
	{"core.entries_retuned_per_apply", "ratio"},
	{"core.components_added_per_apply", "ratio"},
	{"dfm.call_ns", "ns"},
	{"replica.ship.us", "us"},
	{"replica.ships_per_write", "ratio"},
	{"replica.image_bytes_per_ship", "B"},
	{"replica.inner.us", "us"},
	{"objstate.encode_us", "us"},
	{"manager.pass.ms", "ms"},
	{"manager.apply.us", "us"},
	{"manager.journal_records_per_pass", "ratio"},
	{"manager.journal.append_us", "us"},
	{"component.fetch.us", "us"},
	{"component.fetches_per_apply", "ratio"},
	{"obs.spans_per_op", "ratio"},
	{"obs.flight_retained", "count"},
	{"throughput_ops_s", "1/s"},
	{"latency_p90_us", "us"},
	{"latency_p99_us", "us"},
	{"runtime.gc_cycles_per_kop", "ratio"},
	{"runtime.gc_pause_us_total", "us"},
	{"failed_ratio", "ratio"},
	{"evolve_pass_ms", "ms"},
	{"evolve_instances_s", "1/s"},
	{"trace.overhead_ratio", "ratio"},
}

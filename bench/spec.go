package main

// The benchmark's contract: workload and metric names, units,
// directions and regression bounds. BENCHMARK.json at the repository
// root carries the same tables for the driver; TestSpecMatchesJSON
// keeps the two from drifting.

// metricSpec describes one reported metric.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the baseline's median by which an
	// end-to-end metric may worsen before it counts as a regression;
	// per-layer metrics carry none.
	Bound float64
}

// runSeconds is BENCHMARK.json's run_seconds: how long one run
// measures.
const runSeconds = 12

// endToEnd is what a user of the engine sees, measured with spans off.
// The bounds on times are the widest the contract allows because the
// boxes are noisy: over ten runs with ten seeds the quartile spread of
// a time was 2-13 % of its median even after speed normalisation, and
// between phases minutes apart the two-thread workloads' medians moved
// by up to a third (README.md, "Steadiness"); the counts repeat to
// within 2 %.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"query_p50_us", "us", "lower", 0.25},
	{"query_p95_us", "us", "lower", 0.25},
	{"first_row_p50_us", "us", "lower", 0.25},
	{"queries_per_s", "1/s", "higher", 0.25},
	{"tuples_per_s", "1/s", "higher", 0.25},
	{"insert_p50_us", "us", "lower", 0.25},
	{"simcost_per_query", "cost", "lower", 0.02},
	{"allocs_per_query", "count", "lower", 0.05},
	{"alloc_kb_per_query", "KB", "lower", 0.08},
	{"heap_inuse_mb", "MB", "lower", 0.10},
}

// perLayer is the traced run's ladder: one group per package, each
// metric measured from outside by timing calls into the layer's
// exported functions. README.md says which end-to-end metric on which
// workload each is expected to move.
var perLayer = []metricSpec{
	{Name: "disk.pages_read_per_query", Unit: "count", Better: "lower"},
	{Name: "disk.rand_access_ratio", Unit: "ratio", Better: "lower"},
	{Name: "disk.pages_written_per_insert", Unit: "count", Better: "lower"},

	{Name: "bufferpool.get_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "bufferpool.get_miss_ns", Unit: "ns", Better: "lower"},
	{Name: "bufferpool.hit_ratio", Unit: "ratio", Better: "higher"},

	{Name: "btree.seek_ns", Unit: "ns", Better: "lower"},
	{Name: "btree.next_ns_per_entry", Unit: "ns", Better: "lower"},

	{Name: "heap.decode_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "heap.decode_matching_ns_per_tuple", Unit: "ns", Better: "lower"},

	{Name: "core.scan_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "core.self_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "core.point_ns_per_query", Unit: "ns", Better: "lower"},
	{Name: "core.alloc_kb_per_query", Unit: "KB", Better: "lower"},
	{Name: "core.pages_fetched_per_query", Unit: "count", Better: "lower"},
	{Name: "core.morph_accuracy", Unit: "ratio", Better: "higher"},
	{Name: "core.examined_per_result", Unit: "ratio", Better: "lower"},
	{Name: "core.peak_region_pages", Unit: "count", Better: "lower"},

	{Name: "access.full_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "access.index_ns_per_tuple", Unit: "ns", Better: "lower"},

	{Name: "plan.build_ns", Unit: "ns", Better: "lower"},
	{Name: "plan.tree_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "plan.cache_get_ns", Unit: "ns", Better: "lower"},
	{Name: "plan.cache_hit_ratio", Unit: "ratio", Better: "higher"},

	{Name: "facade.run_ns", Unit: "ns", Better: "lower"},
	{Name: "facade.first_row_ns", Unit: "ns", Better: "lower"},
	{Name: "facade.drain_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "facade.close_ns", Unit: "ns", Better: "lower"},
	{Name: "facade.self_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "facade.adhoc_run_ns", Unit: "ns", Better: "lower"},
	{Name: "facade.adhoc_nocache_run_ns", Unit: "ns", Better: "lower"},
	{Name: "facade.prepared_run_ns", Unit: "ns", Better: "lower"},
	{Name: "facade.cursor_row_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "facade.copyrow_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "facade.insert_ns", Unit: "ns", Better: "lower"},
	{Name: "facade.compact_ms", Unit: "ms", Better: "lower"},

	{Name: "parallel.p2_speedup", Unit: "ratio", Better: "higher"},
	{Name: "parallel.startup_ns", Unit: "ns", Better: "lower"},

	{Name: "shard.n1_overhead_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "shard.n1_overhead_ns_per_query", Unit: "ns", Better: "lower"},
	{Name: "shard.n2_speedup", Unit: "ratio", Better: "higher"},
	{Name: "shard.alloc_kb_per_query", Unit: "KB", Better: "lower"},
	{Name: "shard.active_shards_per_query", Unit: "count", Better: "lower"},

	{Name: "rescache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "rescache.hit_p50_us", Unit: "us", Better: "lower"},
	{Name: "rescache.miss_p50_us", Unit: "us", Better: "lower"},
	{Name: "rescache.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "rescache.store_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "rescache.invalidated_per_cycle", Unit: "count", Better: "lower"},

	{Name: "wire.encode_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "wire.bytes_per_tuple", Unit: "B", Better: "lower"},
	{Name: "wire.loopback_frame_ns", Unit: "ns", Better: "lower"},

	{Name: "server.overhead_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "server.overhead_ns_per_query", Unit: "ns", Better: "lower"},
	{Name: "server.residual_ns_per_tuple", Unit: "ns", Better: "lower"},
	{Name: "server.rows_per_batch", Unit: "count", Better: "higher"},
	{Name: "server.batches_per_query", Unit: "count", Better: "lower"},

	{Name: "ssclient.dial_us", Unit: "us", Better: "lower"},
	{Name: "ssclient.prepare_us", Unit: "us", Better: "lower"},
	{Name: "ssclient.alloc_kb_per_query", Unit: "KB", Better: "lower"},

	{Name: "client.query_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.round_spread", Unit: "ratio", Better: "lower"},
	{Name: "client.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "client.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "client.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
}

// metricSet indexes a spec list by name.
func metricSet(specs []metricSpec) map[string]metricSpec {
	m := make(map[string]metricSpec, len(specs))
	for _, s := range specs {
		m[s.Name] = s
	}
	return m
}

package main

// metricDef names one metric of the benchmark. The tables below are what
// the harness emits; BENCHMARK.json at the repo root lists the same names,
// units, directions and bounds (bench_test.go holds the two together).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// workloadNames lists the workloads in the order an all-workload run
// executes them.
var workloadNames = []string{"native-inmem-pr", "native-oocore-pr", "des-wcc", "serve-native-mix"}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one, measured with tracing off.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "edges_per_s", Unit: "edges/s", Better: "higher", Bound: 0.25},
	{Name: "alloc_mb_per_op", Unit: "MiB", Better: "lower", Bound: 0.10},
}

// perLayer are the metrics of single layers, reported by the traced run.
// A metric of a layer the workload does not cross reads 0 there.
var perLayer = []metricDef{
	// Layer probes: the harness calls the layer's exported functions on
	// inputs cut from the workload's graph.
	{Name: "rmat.generate_edges_per_s", Unit: "edges/s", Better: "higher"},
	{Name: "graph.encode_edges_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "graph.decode_edges_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "graph.view_undirected_edges_per_s", Unit: "edges/s", Better: "higher"},
	{Name: "partition.bin_edges_per_s", Unit: "edges/s", Better: "higher"},
	{Name: "gas.encode_slice_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "gas.decode_slice_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "gas.codec_allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "algorithms.pr_gather_apply_updates_per_s", Unit: "updates/s", Better: "higher"},
	{Name: "drive.scatter_typed_edges_per_s", Unit: "edges/s", Better: "higher"},
	{Name: "drive.scatter_typed_allocs_per_chunk", Unit: "count", Better: "lower"},
	{Name: "drive.mem_put_drain_updates_per_s", Unit: "updates/s", Better: "higher"},
	{Name: "drive.mem_put_drain_allocs_per_chunk", Unit: "count", Better: "lower"},
	{Name: "drive.spill_put_drain_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "drive.spill_put_drain_allocs_per_chunk", Unit: "count", Better: "lower"},
	{Name: "drive.decode_update_chunk_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "drive.scatter_wire_edges_per_s", Unit: "edges/s", Better: "higher"},
	{Name: "drive.scatter_wire_allocs_per_chunk", Unit: "count", Better: "lower"},
	{Name: "drive.pool_task_ns", Unit: "ns", Better: "lower"},
	{Name: "storage.file_write_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "storage.file_read_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "storage.mem_write_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "storage.mem_read_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "storage.store_chunks_per_s", Unit: "chunks/s", Better: "higher"},
	{Name: "sim.mailbox_handoffs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sim.timer_events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "durable.journal_append_ns", Unit: "ns", Better: "lower"},
	{Name: "durable.journal_append_sync_ns", Unit: "ns", Better: "lower"},
	{Name: "durable.journal_replay_records_per_s", Unit: "1/s", Better: "higher"},
	{Name: "durable.resultstore_put_ns", Unit: "ns", Better: "lower"},
	{Name: "durable.resultstore_get_ns", Unit: "ns", Better: "lower"},
	{Name: "service.catalog_register_s", Unit: "s", Better: "lower"},
	{Name: "service.catalog_view_s", Unit: "s", Better: "lower"},
	{Name: "service.get_job_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.ring_record_ns", Unit: "ns", Better: "lower"},

	// The native driver, from the traced runs' flight-recorder spans (self
	// time per phase, summed over machines, median over runs) and Report.
	{Name: "native.preprocess_busy_s", Unit: "s", Better: "lower"},
	{Name: "native.scatter_busy_s", Unit: "s", Better: "lower"},
	{Name: "native.gather_busy_s", Unit: "s", Better: "lower"},
	{Name: "native.apply_busy_s", Unit: "s", Better: "lower"},
	{Name: "native.spill_busy_s", Unit: "s", Better: "lower"},
	{Name: "native.steal_busy_s", Unit: "s", Better: "lower"},
	{Name: "native.idle_share", Unit: "ratio", Better: "lower"},
	{Name: "native.machine_busy_skew", Unit: "ratio", Better: "lower"},
	{Name: "native.spill_bytes", Unit: "bytes", Better: "lower"},
	{Name: "native.spill_files", Unit: "count", Better: "lower"},
	{Name: "native.bytes_read", Unit: "bytes", Better: "lower"},
	{Name: "native.steals_accepted", Unit: "count", Better: "lower"},
	{Name: "native.iterations", Unit: "count", Better: "lower"},

	// The DES driver: host time per simulated second, and the model's own
	// figures, which repeat exactly for a seed.
	{Name: "core.host_s_per_sim_s", Unit: "ratio", Better: "lower"},
	{Name: "core.sim_seconds", Unit: "sim-s", Better: "lower"},
	{Name: "core.sim_preprocess_s", Unit: "sim-s", Better: "lower"},
	{Name: "core.sim_scatter_s", Unit: "sim-s", Better: "lower"},
	{Name: "core.sim_gather_s", Unit: "sim-s", Better: "lower"},
	{Name: "core.sim_apply_s", Unit: "sim-s", Better: "lower"},
	{Name: "core.sim_steal_s", Unit: "sim-s", Better: "lower"},
	{Name: "core.bytes_read", Unit: "bytes", Better: "lower"},
	{Name: "core.bytes_written", Unit: "bytes", Better: "lower"},
	{Name: "core.steals_accepted", Unit: "count", Better: "lower"},
	{Name: "core.device_utilization", Unit: "ratio", Better: "higher"},

	// The job service under the closed loop: client-side spans, job view
	// timestamps and GET /v1/stats.
	{Name: "service.jobs_per_s", Unit: "jobs/s", Better: "higher"},
	{Name: "service.e2e_p50_s", Unit: "s", Better: "lower"},
	{Name: "service.e2e_p95_s", Unit: "s", Better: "lower"},
	{Name: "service.submit_p50_s", Unit: "s", Better: "lower"},
	{Name: "service.queue_wait_p50_s", Unit: "s", Better: "lower"},
	{Name: "service.run_p50_s", Unit: "s", Better: "lower"},
	{Name: "service.notify_lag_p50_s", Unit: "s", Better: "lower"},
	{Name: "service.cache_hit_p50_s", Unit: "s", Better: "lower"},
	{Name: "service.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "service.engine_share", Unit: "ratio", Better: "higher"},
	{Name: "service.rejected_429", Unit: "count", Better: "lower"},
	{Name: "durable.wal_records_per_fsync", Unit: "ratio", Better: "higher"},

	// The observer and the Go runtime.
	{Name: "obs.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "obs.spans_dropped", Unit: "count", Better: "lower"},
	{Name: "runtime.peak_rss_mb", Unit: "MiB", Better: "lower"},
	{Name: "runtime.mallocs_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cycles_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms_per_op", Unit: "ms", Better: "lower"},
}

// exactPerLayer are the per-layer figures that depend on the seed alone:
// two records of one seed must agree on them to the last digit.
var exactPerLayer = []string{
	"native.bytes_read", "native.iterations",
	"core.sim_seconds", "core.sim_preprocess_s", "core.sim_scatter_s", "core.sim_gather_s",
	"core.sim_apply_s", "core.sim_steal_s", "core.bytes_read", "core.bytes_written",
	"core.steals_accepted", "core.device_utilization", "service.cache_hit_ratio",
}

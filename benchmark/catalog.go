package main

// The metric catalog: every metric the benchmark prints, with its unit,
// direction and, for end-to-end metrics, the regression bound. BENCHMARK.json
// at the root of the repository is this catalog written out (-print-spec);
// a test fails when the two differ.

type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	doc    string
}

// runSeconds is how long one run measures.
const runSeconds = 10

// endToEnd metrics are measured with tracing off. Every workload reports
// every one of them, and none can be zero: each workload has reads. Each is
// the median over the run's rounds, but for the heap.
//
// The timings are host-speed corrected: a round's value is read against how
// long a fixed probe (calib.go), none of it the program's, took just before
// and after the round, and reported as it would be at the probe's nominal
// speed. The two shared cores this was written on run the same code a quarter
// to a half faster or slower from one minute to the next, and every timing
// follows; uncorrected, ten runs spread by 20% to 50% of their median in a
// busy quarter of an hour, corrected by 4% to 13% (23% for disk-mixed's
// p95). The raw values are printed beside them as "info raw.*" lines. The
// bounds stay at the widest the driver allows; the heap's too, because with a
// follower attached a snapshot transfer's buffers (3 MB each) are sometimes
// still held when the heap is read, and ten runs spread by 12%.
var endToEnd = []metricDef{
	{"calls_s", "1/s", "higher", 0.25, "calls completed per wall second over both workers; a call is one 64-key read or durable insert, or one 1000-key scan or count"},
	{"read_p50_us", "us", "lower", 0.25, "median latency of one 64-key LookupBatch or ContainsBatch call"},
	{"read_p95_us", "us", "lower", 0.25, "95th percentile of the same: the highest percentile that repeats from run to run beside flushes and compactions"},
	{"heap_bytes_per_key", "B/key", "lower", 0.25, "heap the deployment holds after set-up and two forced collections, over keys loaded; the least over the rounds"},
	{"setup_s", "s", "lower", 0.25, "one set-up: train or open and preload every store, start servers, router and follower, one warm-up pass"},
}

// perLayer metrics come from the traced run and have no bound. Counts and
// ratios are taken around the workload loop and are zero where the workload
// leaves a layer idle. Timings are taken on the ladder (ladder.go), which
// every workload runs in full on its own keys, so no timing is ever a
// constant zero; latencies of the loop's own writes and scans are printed as
// "info" lines by the workloads that have them.
var perLayer = []metricDef{
	// The workload loop itself, with tracing on.
	{"trace.read_p50_us", "us", "lower", 0, "read_p50_us with span recording and counter sampling on; against the untraced value it is the tracing overhead"},
	{"trace.calls_s", "1/s", "higher", 0, "calls_s with tracing on"},
	{"loop.write_calls", "count", "higher", 0, "durable 64-key inserts acknowledged in the loop"},
	{"loop.scan_calls", "count", "higher", 0, "ScanBatch and CountRange calls in the loop"},
	{"loop.scan_keys_per_call", "count", "higher", 0, "keys one scan call streamed on average"},
	{"loop.write_amp", "ratio", "lower", 0, "bytes written through vfs over user key bytes acknowledged in the loop"},
	{"loop.write_amp_drift", "ratio", "lower", 0, "write amplification of the last third of the loop over that of the middle third; 1 means levelled off"},
	{"loop.disk_bytes_per_user_byte", "ratio", "lower", 0, "bytes under the store directories after the final flush over user key bytes stored"},

	{"core.plan_batch_ns_per_key", "ns", "lower", 0, "compiled plan, LookupBatch, per key"},
	{"core.plan_single_ns", "ns", "lower", 0, "compiled plan, one Lookup"},
	{"core.max_abs_err", "count", "lower", 0, "largest leaf error of the RMI over all keys"},
	{"core.mean_abs_err", "count", "lower", 0, "mean leaf error"},
	{"core.train_ms_per_mkeys", "ms", "lower", 0, "training one RMI over all keys, per million keys"},
	{"core.index_bytes_per_key", "B/key", "lower", 0, "RMI.SizeBytes over keys"},
	{"search.lastmile_ns_per_key", "ns", "lower", 0, "the plan's search strategy alone, on the windows RMI.Predict gives"},

	{"serve.lookup_batch_us", "us", "lower", 0, "read ladder: Store.LookupBatch"},
	{"serve.self_us", "us", "lower", 0, "serve rung minus core rung: shard split, sort, un-permute"},
	{"serve.insert_durable_us", "us", "lower", 0, "write ladder: Store.InsertDurable"},
	{"serve.self_write_us", "us", "lower", 0, "insert_durable rung minus storage.commit rung"},
	{"serve.drain_ms_p50", "ms", "lower", 0, "median drain (flush trigger to publish) of the write ladder's store"},
	{"serve.snapshot_swaps", "count", "lower", 0, "RCU publications during the loop"},
	{"serve.queued_keys_max", "count", "lower", 0, "most keys seen waiting for a drain or flush during the loop"},

	{"scan.open_us", "us", "lower", 0, "opening one 1000-key scan on the ladder's store"},
	{"scan.ns_per_key", "ns", "lower", 0, "streaming it, per key"},
	{"scan.count_range_us", "us", "lower", 0, "CountRange over the same range"},

	{"storage.append_ns_per_key", "ns", "lower", 0, "write ladder: Engine.AppendBatch, no fsync, per key"},
	{"storage.commit_us", "us", "lower", 0, "write ladder: Engine.CommitBatch, one covering fsync"},
	{"storage.commit_self_us", "us", "lower", 0, "commit rung minus append rung: the group commit and its fsync"},
	{"storage.flush_ms_p50", "ms", "lower", 0, "median segment flush of the write ladder's store"},
	{"storage.compaction_ms_p50", "ms", "lower", 0, "median compaction of the write ladder's store"},
	{"storage.reopen_ms", "ms", "lower", 0, "cold open of a crash copy of the write ladder's store to its first verified answer"},
	{"storage.keys_per_fsync", "count", "higher", 0, "keys acknowledged per WAL fsync in the loop: group commit useful work per attempt"},
	{"storage.flushes", "count", "lower", 0, "segment flushes during the loop"},
	{"storage.compactions", "count", "lower", 0, "compactions during the loop"},
	{"storage.backpressure_waits", "count", "lower", 0, "writer stalls for compaction debt during the loop"},
	{"storage.segments_final", "count", "lower", 0, "segments after the final flush"},
	{"storage.models_trained", "count", "lower", 0, "RMIs trained by flushes and compactions during the loop"},
	{"storage.models_loaded_on_reopen", "count", "higher", 0, "RMIs deserialized, not retrained, when the crash copy was opened"},
	{"bloom.probes_per_lookup", "count", "lower", 0, "segment Bloom filters consulted per key in the final membership pass"},
	{"bloom.pass_ratio", "ratio", "lower", 0, "share of those probes the filters let through"},
	{"bloom.false_pass_ratio", "ratio", "lower", 0, "share of probes for absent keys the filters let through"},

	{"vfs.fsync_us_p50", "us", "lower", 0, "median File.Sync on the write ladder's commit rung"},
	{"vfs.wrapper_overhead_pct", "%", "lower", 0, "commit rung through the counting FS over the same rung on the bare FS, minus one"},
	{"vfs.fsyncs", "count", "lower", 0, "file and directory fsyncs during the loop"},
	{"vfs.write_calls", "count", "lower", 0, "File.Write calls during the loop"},
	{"vfs.avg_write_bytes", "B", "higher", 0, "bytes per Write call"},
	{"vfs.bytes_written_wal", "B", "lower", 0, "bytes written to WAL files during the loop"},
	{"vfs.bytes_written_segment", "B", "lower", 0, "bytes written to segment files during the loop"},
	{"vfs.bytes_read", "B", "lower", 0, "bytes read through the FS during the loop"},

	{"server.mem_rpc_us", "us", "lower", 0, "read ladder: one node over the in-memory transport"},
	{"server.codec_self_us", "us", "lower", 0, "mem rung minus serve rung: encode, frame, crc, admission, decode"},
	{"server.request_us_p50", "us", "lower", 0, "the server's own request histogram on the ladder's TCP node"},
	{"server.write_tcp_us", "us", "lower", 0, "write ladder: one persistent node over TCP loopback"},
	{"server.self_write_us", "us", "lower", 0, "write tcp rung minus insert_durable rung"},
	{"server.timeouts", "count", "lower", 0, "watchdog closes during the loop"},
	{"server.errors", "count", "lower", 0, "error replies during the loop"},

	{"wire.tcp_rpc_us", "us", "lower", 0, "read ladder: one node over TCP loopback"},
	{"wire.kernel_self_us", "us", "lower", 0, "tcp rung minus mem rung: the socket pair"},
	{"wire.loopback_rtt_us", "us", "lower", 0, "raw one-byte echo over TCP loopback: the floor under every RPC"},
	{"wire.wrapper_overhead_pct", "%", "lower", 0, "tcp rung through the counting transport over the bare transport, minus one"},
	{"wire.bytes_per_key", "B/key", "lower", 0, "request and reply bytes per key moved in the loop"},
	{"wire.msgs_per_call", "count", "lower", 0, "request messages per workload call in the loop"},
	{"wire.dials", "count", "lower", 0, "connections opened during the loop"},

	{"router.rpc_us", "us", "lower", 0, "read ladder: three nodes through the router"},
	{"router.self_us", "us", "lower", 0, "router rung minus tcp rung: split, fan-out, merge, slowest node"},
	{"router.write_rpc_us", "us", "lower", 0, "write ladder: three persistent nodes through the router"},
	{"router.self_write_us", "us", "lower", 0, "router write rung minus server write rung"},
	{"router.node_rpcs_per_call", "count", "lower", 0, "node RPCs per router call in the loop"},
	{"router.pruned_nodes_per_call", "count", "higher", 0, "node contacts skipped by fences per router call in the loop"},
	{"router.fanout_ratio", "ratio", "lower", 0, "share of router calls that touched two or more nodes"},
	{"router.retries", "count", "lower", 0, "RPC attempts after the first during the loop"},

	{"repl.converge_ms", "ms", "lower", 0, "write ladder's batches through a primary with one follower: last acknowledgement to follower caught up"},
	{"repl.ship_bytes_per_user_byte", "ratio", "lower", 0, "bytes that primary shipped over user key bytes acknowledged"},
	{"repl.lag_frames_max", "count", "lower", 0, "largest follower lag sampled while those batches ran"},

	{"keycodec.prefix_ns", "ns", "lower", 0, "one order-preserving 8-byte prefix of a DocID key"},
	{"keycodec.dict_collision_ratio", "ratio", "lower", 0, "share of string keys that share their prefix with another key"},
	{"keycodec.max_group", "count", "lower", 0, "largest group of string keys under one prefix"},

	{"runtime.allocs_per_call", "count", "lower", 0, "heap allocations per workload call in the loop, the benchmark's own included"},
	{"runtime.alloc_bytes_per_call", "B", "lower", 0, "bytes allocated per workload call"},
	{"runtime.gc_pause_ms", "ms", "lower", 0, "total stop-the-world pause during the loop"},
	{"runtime.cpu_s_per_mkeys", "s", "lower", 0, "process CPU time per million keys moved in the loop"},
}

// workloadDef names a workload and says why it exists.
type workloadDef struct{ name, why string }

var workloads = []workloadDef{
	{"mem-read", "in-process in-memory store, 8M keys, uniform probes: core, search and serve do all the work, every probe misses cache; wire, router and storage are idle"},
	{"wire-read", "3 in-memory nodes behind TCP servers and the router, Zipf probes that fit cache: server, router and transport dominate, core is noise"},
	{"disk-mixed", "one persistent store with fsync on, 40% durable inserts, 45% reads, 15% scans: storage and vfs dominate, the wire is idle, reads run beside flushes and compactions"},
	{"cluster-mixed-str", "string keys on 3 persistent TCP nodes plus one WAL follower, reads, inserts and scans through the router: the string twin of every path, no single layer dominates"},
}

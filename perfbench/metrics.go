package main

// metricDef names a metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd is what an untraced run reports, on every workload; it must
// match BENCHMARK.json's end_to_end list.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"uploads_per_s", "1/s"},
	{"cpu_ms_per_upload", "ms"},
	{"upload_p50_ms", "ms"},
	{"upload_p99_ms", "ms"},
	{"round_s", "s"},
	{"bytes_per_round", "bytes"},
	{"peak_heap_mb", "MiB"},
}

// perLayer is what a traced run reports, on every workload; it must
// match BENCHMARK.json's per_layer list. Counters of a layer a workload
// bypasses read 0.
var perLayer = []metricDef{
	{"compress.encode_ms.raw", "ms"},
	{"compress.encode_ms.float16", "ms"},
	{"compress.encode_ms.int8", "ms"},
	{"compress.encode_ms.topk", "ms"},
	{"fedcore.decode_envelope_ms.raw", "ms"},
	{"fedcore.decode_envelope_ms.float16", "ms"},
	{"fedcore.decode_envelope_ms.int8", "ms"},
	{"fedcore.decode_envelope_ms.topk", "ms"},
	{"fedcore.bundle_add_ms", "ms"},
	{"fedcore.bundle_commit_ms", "ms"},
	{"flnet.quarantined", "count"},
	{"flnet.stale", "count"},
	{"flnet.throttled", "count"},
	{"flnet.duplicates", "count"},
	{"flnet.bytes_received", "bytes"},
	{"proc.cpu_util", "frac"},
	{"gc.alloc_bytes_per_op", "bytes"},
	{"gc.allocs_per_op", "count"},
	{"gc.pause_total_ms", "ms"},
	{"gc.cycles", "count"},
	{"trace.overhead_frac", "frac"},
}

// workloadOnly are metrics that exist on some workloads only. A run
// prints each that its workload measures, by name with its unit, above
// the result line; they are not in the result line, which carries the
// same list on every workload.
var workloadOnly = []metricDef{
	{"session_p50_ms", "ms"},
	{"session_p99_ms", "ms"},
	{"fetch_p99_ms", "ms"},
	{"train_samples_per_s", "1/s"},
	{"test_accuracy", "frac"},
	{"flnet.update_handler_p50_ms", "ms"},
	{"flnet.update_handler_p99_ms", "ms"},
	{"flnet.model_handler_p50_ms", "ms"},
	{"flnet.round_close_ms", "ms"},
	{"flnet.transport_ms", "ms"},
	{"flnet.accept_ratio", "frac"},
	{"hdc.encode_batch_ms_per_sample", "ms"},
	{"hdc.oneshot_ms", "ms"},
	{"hdc.refine_epoch_ms", "ms"},
	{"hdc.accuracy_ms", "ms"},
	{"core.features_ms_per_sample", "ms"},
	{"fl.run_s", "s"},
	{"fl.round_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
}

// codecNames are the wire codecs the ingest workloads cycle through and
// the replays time, by their fedcore names.
var codecNames = []string{"raw", "float16", "int8", "topk"}
